"""Out-of-core mini-batch streaming: factorized vs. materialized SGD.

Over the Section 5.1 decision-rule sweep grid, this module times one
mini-batch SGD logistic-regression fit (``solver="sgd"``) on the factorized
normalized matrix ("F": every batch is a ``take_rows`` slice of ``S`` and the
indicators, attribute tables shared) against the same fit on the materialized
join output ("M": every batch is a dense row slice).  The redundancy argument
of the paper carries over batch-by-batch, so factorized streaming should win
wherever the full-batch decision rule says "factorize"; the acceptance check
asserts it at the most redundant grid point (TR 20, FR 4), timed
``DECISION_TIMINGS`` times and decided on the median speedup, since that point
sits near 1x and one timing cannot tell a regression from noise.

``--smoke`` additionally exercises the full out-of-core path end to end: the
entity table is written to a CSV file, ``stream_normalized_batches`` reads it
back chunk by chunk under an artificial ``memory_budget`` smaller than the
materialized matrix (chunk size derived from the planner's memory model), and
``partial_fit`` trains logistic regression without the full ``S`` -- or the
join output -- ever being resident.

Run styles:

* ``pytest benchmarks/bench_streaming.py`` -- the full grid with
  pytest-benchmark timing;
* ``python benchmarks/bench_streaming.py --smoke`` -- a reduced grid plus the
  chunked-CSV demo for CI; writes ``benchmarks/results/streaming.json``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import tempfile
from typing import Dict, List, Sequence, Tuple

import numpy as np

from _common import blas_threads
from repro.bench.harness import SpeedupResult, compare
from repro.ml import LogisticRegressionGD

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
RESULTS_FILE = RESULTS_DIR / "streaming.json"

# Scale note: mini-batch streaming repays factorization only once the
# arithmetic dominates the per-batch dispatch -- each factorized batch op
# re-runs the attribute-side product R @ x, so the win needs batch_rows well
# above n_R and a genuinely redundant corner (high TR x FR), exactly like the
# paper's full-batch decision rule.  The grid spans both regimes on purpose:
# the low-redundancy points *should* favour materialized batches.
FULL_GRID = dict(tuple_ratios=(2, 5, 10, 20), feature_ratios=(0.5, 1, 2, 4),
                 attribute_rows=2_000, entity_features=20, batch_size=8_192,
                 max_iter=3, repeats=3)
SMOKE_GRID = dict(tuple_ratios=(2, 20), feature_ratios=(0.5, 4),
                  attribute_rows=2_000, entity_features=20, batch_size=8_192,
                  max_iter=3, repeats=3)
#: Independent timings of the decision point; the gate reads their median.
DECISION_TIMINGS = 5


def _labels_for(n_rows: int, seed: int = 23) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.where(rng.standard_normal(n_rows) > 0, 1.0, -1.0)


def evaluate_point(tuple_ratio: float, feature_ratio: float, attribute_rows: int,
                   entity_features: int, batch_size: int, max_iter: int,
                   repeats: int) -> Tuple[SpeedupResult, dict]:
    """Time factorized vs. materialized mini-batch SGD at one grid point."""
    from repro.bench.experiments import build_pk_fk_dataset

    dataset = build_pk_fk_dataset(tuple_ratio, feature_ratio,
                                  num_attribute_rows=attribute_rows,
                                  num_entity_features=entity_features)
    normalized, materialized = dataset.normalized, dataset.materialized
    y = _labels_for(normalized.shape[0])

    def fit(data):
        LogisticRegressionGD(max_iter=max_iter, solver="sgd",
                             batch_size=batch_size).fit(data, y)

    result = compare(
        lambda: fit(materialized),
        lambda: fit(normalized),
        parameters={"tuple_ratio": tuple_ratio, "feature_ratio": feature_ratio},
        repeats=repeats,
    )
    record = {
        "tuple_ratio": tuple_ratio,
        "feature_ratio": feature_ratio,
        "batch_size": batch_size,
        "n_rows": int(normalized.shape[0]),
        "materialized_seconds": result.materialized_seconds,
        "factorized_seconds": result.factorized_seconds,
        "speedup": result.speedup,
    }
    return result, record


def run_sweep(tuple_ratios: Sequence[float], feature_ratios: Sequence[float],
              attribute_rows: int, entity_features: int, batch_size: int,
              max_iter: int, repeats: int) -> Tuple[List[SpeedupResult], List[dict]]:
    results, records = [], []
    for tr in tuple_ratios:
        for fr in feature_ratios:
            result, record = evaluate_point(tr, fr, attribute_rows, entity_features,
                                            batch_size, max_iter, repeats)
            results.append(result)
            records.append(record)
    return results, records


def csv_streaming_demo(attribute_rows: int = 400, tuple_ratio: int = 10,
                       epochs: int = 2, budget_fraction: float = 0.05) -> dict:
    """Train through the chunked-CSV path under an artificial memory budget.

    Builds a small star schema, writes the entity table to a CSV file, streams
    it back with ``stream_normalized_batches`` at a ``memory_budget`` equal to
    *budget_fraction* of the materialized matrix's bytes, and ``partial_fit``s
    logistic regression over the batches.  Asserts that every batch's
    densified footprint respects the budget and that the learned coefficients
    are finite -- the acceptance criterion of the streaming issue.
    """
    from repro.core.planner.memory import DENSE_ELEMENT_BYTES
    from repro.relational import Join, SchemaGraph, Table, stream_normalized_batches, write_csv

    rng = np.random.default_rng(7)
    n_r, n_s = attribute_rows, attribute_rows * tuple_ratio
    attribute = Table("attr", {
        "pk": np.arange(n_r).astype(float),
        "x1": rng.standard_normal(n_r),
        "x2": rng.standard_normal(n_r),
        "cat": np.asarray([f"c{i % 5}" for i in range(n_r)], dtype=object),
    })
    fk = np.concatenate([np.arange(n_r), rng.integers(0, n_r, size=n_s - n_r)])
    rng.shuffle(fk)
    entity = Table("entity", {
        "fk": fk.astype(float),
        "amount": rng.standard_normal(n_s),
        "label": np.where(rng.standard_normal(n_s) > 0, 1.0, -1.0),
    })
    graph = SchemaGraph("entity", [Join("entity.fk", "attr.pk")])

    d = 1 + 2 + 5  # entity feature + numeric attrs + one-hot categories
    materialized_bytes = n_s * d * DENSE_ELEMENT_BYTES
    budget = max(int(materialized_bytes * budget_fraction), d * DENSE_ELEMENT_BYTES)

    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "entity.csv"
        write_csv(entity, path)
        model = LogisticRegressionGD(step_size=1e-3)
        batch_sizes: List[int] = []
        rows_seen = 0
        for _ in range(epochs):
            rows_seen = 0
            for batch in stream_normalized_batches(
                    path, graph, {"attr": attribute}, entity_features=["amount"],
                    target_column="label", memory_budget=budget):
                assert batch.is_factorized
                footprint = batch.matrix.shape[0] * d * DENSE_ELEMENT_BYTES
                assert footprint <= budget + d * DENSE_ELEMENT_BYTES, (
                    f"batch footprint {footprint} exceeds budget {budget}"
                )
                model.partial_fit(batch.matrix, batch.target)
                batch_sizes.append(int(batch.matrix.shape[0]))
                rows_seen += int(batch.matrix.shape[0])
        assert rows_seen == n_s, "stream did not cover every entity row"
        assert np.all(np.isfinite(model.coef_)), "streamed fit produced non-finite weights"
    return {
        "n_rows": n_s,
        "columns": d,
        "materialized_bytes": materialized_bytes,
        "memory_budget": budget,
        "epochs": epochs,
        "batch_rows": max(batch_sizes),
        "num_batches_per_epoch": len(batch_sizes) // epochs,
    }


def write_results(records: List[dict], demo: dict) -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    payload = {"points": records, "csv_streaming_demo": demo}
    RESULTS_FILE.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return RESULTS_FILE


def decision_speedups(grid: dict, results: List[SpeedupResult]) -> List[float]:
    """Speedups of ``DECISION_TIMINGS`` independent timings of the grid's most
    redundant point (its largest tuple and feature ratios): the sweep's own
    timing of it in *results*, then as many more as make up the count."""
    tr, fr = max(grid["tuple_ratios"]), max(grid["feature_ratios"])
    swept = next(r.speedup for r in results
                 if (r.parameters["tuple_ratio"], r.parameters["feature_ratio"]) == (tr, fr))
    fixed = {k: v for k, v in grid.items() if k not in ("tuple_ratios", "feature_ratios")}
    return [swept] + [evaluate_point(tr, fr, **fixed)[0].speedup
                      for _ in range(DECISION_TIMINGS - 1)]


def decide(grid: dict, results: List[SpeedupResult]) -> Tuple[bool, str]:
    """Whether factorized streaming beats materialized at the decision point,
    on the median of its timings, and a line reporting them."""
    speedups = decision_speedups(grid, results)
    median = float(np.median(speedups))
    report = (f"TR={max(grid['tuple_ratios']):g} FR={max(grid['feature_ratios']):g}: "
              f"median speedup {median:.2f}x of {len(speedups)} timings "
              f"({', '.join(f'{s:.2f}x' for s in speedups)}); BLAS threads {blas_threads()}")
    return median > 1.0, report


def test_streamed_factorized_beats_materialized(benchmark):
    """Factorized mini-batch SGD wins where the decision rule says factorize."""
    def run():
        return run_sweep(**FULL_GRID)

    results, records = benchmark.pedantic(run, rounds=1, iterations=1)
    write_results(records, csv_streaming_demo())
    assert len(results) == len(FULL_GRID["tuple_ratios"]) * len(FULL_GRID["feature_ratios"])
    ok, report = decide(FULL_GRID, results)
    print(report)
    assert ok, report + "\n" + "\n".join(
        f"TR={r.parameters['tuple_ratio']:g} FR={r.parameters['feature_ratio']:g}: "
        f"F {r.factorized_seconds * 1e3:.2f} ms vs M {r.materialized_seconds * 1e3:.2f} ms "
        f"({r.speedup:.2f}x)" for r in results
    )


def test_csv_streaming_under_budget():
    """The chunked-CSV ingestion path trains under the artificial budget."""
    demo = csv_streaming_demo()
    assert demo["memory_budget"] < demo["materialized_bytes"]
    assert demo["num_batches_per_epoch"] > 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced grid + chunked-CSV demo for CI")
    args = parser.parse_args(argv)
    grid = SMOKE_GRID if args.smoke else FULL_GRID

    demo = csv_streaming_demo()
    print(f"chunked-CSV streaming demo: {demo['n_rows']} rows x {demo['columns']} cols, "
          f"budget {demo['memory_budget']} B of {demo['materialized_bytes']} B "
          f"materialized -> {demo['num_batches_per_epoch']} batches/epoch of "
          f"<= {demo['batch_rows']} rows: OK")

    results, records = run_sweep(**grid)
    path = write_results(records, demo)
    print(f"wrote {path}")
    for r in results:
        print(f"TR={r.parameters['tuple_ratio']:>4g} FR={r.parameters['feature_ratio']:>5g}  "
              f"M={r.materialized_seconds * 1e3:8.2f} ms  "
              f"F={r.factorized_seconds * 1e3:8.2f} ms  speedup={r.speedup:.2f}x")
    ok, report = decide(grid, results)
    print(report)
    print(f"factorized streaming at the most redundant point: {'OK' if ok else 'FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
