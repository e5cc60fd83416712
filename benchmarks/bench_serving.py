"""Online scoring: the factorized serving subsystem vs. materialized rows.

Over the Section 5.1 decision-rule sweep grid, this module compares two ways
of serving point scoring requests for a model trained over a star schema:

* **M (materialized per-request)** -- the conventional serving baseline: the
  join output ``T`` is kept resident (``n_S x d`` dense) and every request
  computes its own row score ``T[i] @ w``.
* **F (factorized service)** -- the :mod:`repro.serve` path: per-table
  partial scores ``R_k @ w_k`` precomputed once, requests answered by an
  entity-local dot product plus one O(1) partial gather per join key, and
  the request stream micro-batched by the :class:`ScoringService`.

The redundancy argument of the paper carries over to inference: the
factorized path touches ``d_S`` columns per request instead of ``d`` and its
resident state is a small multiple of the *base* tables rather than the
join output -- the memory ratio grows linearly with the tuple ratio, which
is what makes the materialized baseline untenable at serving scale.  The
acceptance check asserts a >= 5x throughput win at every grid point with
tuple ratio >= 10 (with one noise retry, like the other benchmark gates);
secondary columns record the batched-materialized and per-request factorized
timings for an honest like-for-like picture, plus the resident-bytes ratio.

Run styles:

* ``pytest benchmarks/bench_serving.py`` -- the full grid with
  pytest-benchmark timing;
* ``python benchmarks/bench_serving.py --smoke`` -- a reduced grid for CI;
  writes ``benchmarks/results/serving.json``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.bench.harness import SpeedupResult, compare
from repro.core.planner.memory import matrix_nbytes
from repro.ml import LinearRegressionGD
from repro.serve import FactorizedScorer, ScoringService

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
RESULTS_FILE = RESULTS_DIR / "serving.json"

FULL_GRID = dict(tuple_ratios=(2, 5, 10, 20), feature_ratios=(0.5, 1, 2, 4),
                 attribute_rows=2_000, entity_features=20, num_requests=2_000,
                 micro_batch=256, repeats=3)
SMOKE_GRID = dict(tuple_ratios=(2, 20), feature_ratios=(0.5, 4),
                  attribute_rows=1_000, entity_features=20, num_requests=1_000,
                  micro_batch=256, repeats=3)

#: acceptance: factorized point-serving throughput >= 5x materialized
#: per-request scoring wherever the tuple ratio is at least this.
TARGET_SPEEDUP = 5.0
TARGET_TUPLE_RATIO = 10


def evaluate_point(tuple_ratio: float, feature_ratio: float, attribute_rows: int,
                   entity_features: int, num_requests: int, micro_batch: int,
                   repeats: int) -> Tuple[SpeedupResult, dict]:
    """Time factorized vs. materialized point serving at one grid point."""
    from repro.bench.experiments import build_pk_fk_dataset

    dataset = build_pk_fk_dataset(tuple_ratio, feature_ratio,
                                  num_attribute_rows=attribute_rows,
                                  num_entity_features=entity_features)
    normalized = dataset.normalized
    dense = np.asarray(dataset.materialized)
    rng = np.random.default_rng(41)
    y = rng.standard_normal(normalized.shape[0])
    model = LinearRegressionGD(max_iter=2).fit(normalized, y)
    w = model.coef_

    scorer = FactorizedScorer.from_model(model, normalized)
    service = ScoringService(scorer, max_batch_size=micro_batch, cache_size=0)
    requests = rng.integers(0, normalized.shape[0], size=num_requests)

    # Serving answers must agree before any timing means anything.
    reference = dense[requests] @ w
    np.testing.assert_allclose(service.score_rows(requests), reference,
                               rtol=1e-9, atol=1e-9)

    def materialized_per_request():
        for i in requests:
            dense[i:i + 1] @ w

    def factorized_service():
        service.score_rows(requests)

    result = compare(
        materialized_per_request,
        factorized_service,
        parameters={"tuple_ratio": tuple_ratio, "feature_ratio": feature_ratio},
        repeats=repeats,
    )

    # Secondary diagnostics: like-for-like batched and per-request timings.
    start = time.perf_counter()
    for chunk_start in range(0, num_requests, micro_batch):
        dense[requests[chunk_start:chunk_start + micro_batch]] @ w
    materialized_batched = time.perf_counter() - start
    start = time.perf_counter()
    for i in requests[:200]:
        scorer.score_rows([i])
    factorized_per_request = (time.perf_counter() - start) * (num_requests / 200)

    factorized_bytes = scorer.partial_bytes + sum(
        matrix_nbytes(block) for block in [normalized.entity, *normalized.indicators]
    )
    record = {
        "tuple_ratio": tuple_ratio,
        "feature_ratio": feature_ratio,
        "n_rows": int(normalized.shape[0]),
        "n_cols": int(normalized.shape[1]),
        "num_requests": num_requests,
        "micro_batch": micro_batch,
        "materialized_seconds": result.materialized_seconds,
        "factorized_seconds": result.factorized_seconds,
        "speedup": result.speedup,
        "materialized_batched_seconds": materialized_batched,
        "factorized_per_request_seconds": factorized_per_request,
        "materialized_bytes": int(dense.nbytes),
        "factorized_resident_bytes": int(factorized_bytes),
        "memory_ratio": dense.nbytes / factorized_bytes if factorized_bytes else float("inf"),
    }
    return result, record


def run_sweep(tuple_ratios: Sequence[float], feature_ratios: Sequence[float],
              attribute_rows: int, entity_features: int, num_requests: int,
              micro_batch: int, repeats: int) -> Tuple[List[SpeedupResult], List[dict]]:
    results, records = [], []
    for tr in tuple_ratios:
        for fr in feature_ratios:
            result, record = evaluate_point(tr, fr, attribute_rows, entity_features,
                                            num_requests, micro_batch, repeats)
            results.append(result)
            records.append(record)
    return results, records


def write_results(records: List[dict]) -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    RESULTS_FILE.write_text(json.dumps({"points": records}, indent=2, sort_keys=True) + "\n")
    return RESULTS_FILE


def _acceptance(results: List[SpeedupResult]) -> Dict[str, bool]:
    """Per-point pass/fail at the decision-rule corner the issue targets."""
    verdict = {}
    for r in results:
        if r.parameters["tuple_ratio"] >= TARGET_TUPLE_RATIO:
            key = f"TR={r.parameters['tuple_ratio']:g},FR={r.parameters['feature_ratio']:g}"
            verdict[key] = bool(r.speedup >= TARGET_SPEEDUP)
    return verdict


def _passes(results: List[SpeedupResult]) -> bool:
    verdict = _acceptance(results)
    return bool(verdict) and all(verdict.values())


def _format(results: List[SpeedupResult]) -> str:
    return "\n".join(
        f"TR={r.parameters['tuple_ratio']:>4g} FR={r.parameters['feature_ratio']:>5g}  "
        f"M={r.materialized_seconds * 1e3:8.2f} ms  "
        f"F={r.factorized_seconds * 1e3:8.2f} ms  speedup={r.speedup:.1f}x"
        for r in results
    )


def test_factorized_serving_beats_materialized(benchmark):
    """Factorized point serving wins >= 5x wherever the tuple ratio is >= 10."""
    def run():
        return run_sweep(**FULL_GRID)

    results, records = benchmark.pedantic(run, rounds=1, iterations=1)
    write_results(records)
    assert len(results) == len(FULL_GRID["tuple_ratios"]) * len(FULL_GRID["feature_ratios"])
    assert _passes(results), _format(results)


def test_serving_memory_footprint_scales_with_tuple_ratio():
    """Resident serving state stays near base-table size (timing-independent)."""
    _, low = evaluate_point(2, 2, 400, 10, num_requests=200, micro_batch=64, repeats=1)
    _, high = evaluate_point(20, 2, 400, 10, num_requests=200, micro_batch=64, repeats=1)
    assert high["memory_ratio"] > low["memory_ratio"]
    assert high["memory_ratio"] > 1.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="reduced grid for CI")
    args = parser.parse_args(argv)
    grid = SMOKE_GRID if args.smoke else FULL_GRID

    results, records = run_sweep(**grid)
    if not _passes(results):
        retry = dict(grid, repeats=grid["repeats"] + 2)
        print("acceptance miss on first pass; re-measuring with more repeats")
        results, records = run_sweep(**retry)
    path = write_results(records)
    print(f"wrote {path}")
    print(_format(results))
    for record in records:
        print(f"TR={record['tuple_ratio']:>4g} FR={record['feature_ratio']:>5g}  "
              f"resident: F {record['factorized_resident_bytes'] / 1e6:7.2f} MB vs "
              f"M {record['materialized_bytes'] / 1e6:7.2f} MB "
              f"({record['memory_ratio']:.1f}x)")
    ok = _passes(results)
    print(f"factorized serving >= {TARGET_SPEEDUP:g}x at TR >= {TARGET_TUPLE_RATIO}: "
          f"{'OK' if ok else 'FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
