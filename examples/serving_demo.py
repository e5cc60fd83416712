"""Serving demo: train on a star schema, register the model, score online.

The end-to-end serving story of :mod:`repro.serve`:

1. build a Customers (entity) / Employers (attribute) star schema and train
   logistic regression on the normalized matrix -- no join materialized;
2. save the model into a versioned :class:`ModelRegistry`, which binds the
   weights to a fingerprint of the schema's column segments;
3. load it back as a :class:`FactorizedScorer` behind a
   :class:`ScoringService`: per-employer partial scores are precomputed, so
   a request is one dot product over the customer features plus an O(1)
   gather per join key -- the employer columns are never touched again;
4. translate natural keys (employer ids) to attribute rows with
   ``Table.positions_for_keys`` and score an ad-hoc customer;
5. refresh the employers table while serving: ``update_table`` rebuilds only
   that table's partials and swaps them in atomically.

Run with::

    python examples/serving_demo.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path
from typing import Dict, Tuple

import numpy as np

from repro import LogisticRegressionGD, ModelRegistry, ScoringService
from repro.ml import binarize_labels
from repro.relational import Join, SchemaGraph, Table, normalized_from_schema


def build_tables(num_customers: int = 2_000, num_employers: int = 80,
                 seed: int = 0) -> Tuple[Table, Table]:
    """A Customers entity table with an FK into an Employers attribute table."""
    rng = np.random.default_rng(seed)
    employer_ids = np.concatenate([
        np.arange(num_employers),
        rng.integers(0, num_employers, size=num_customers - num_employers),
    ])
    rng.shuffle(employer_ids)
    revenue = rng.uniform(1, 500, size=num_employers).round(1)
    customers = Table("customers", {
        "customer_id": np.arange(num_customers),
        "age": rng.uniform(20, 70, size=num_customers).round(1),
        "income": rng.uniform(20, 200, size=num_customers).round(1),
        "employer_id": employer_ids,
        "churned": (rng.uniform(size=num_customers)
                    < 0.2 + 0.6 * (revenue[employer_ids] < 100)).astype(float),
    })
    employers = Table("employers", {
        "employer_id": np.arange(num_employers),
        "revenue": revenue,
        "employees": rng.integers(10, 10_000, size=num_employers).astype(float),
    })
    return customers, employers


def zscore_columns(table: Table, columns) -> Tuple[Table, Dict[str, Tuple[float, float]]]:
    """Z-score feature columns; returns the scaled table and the fitted scaler.

    Serving must apply the *training-time* scaler to fresh requests and
    refreshed tables, so the (mean, std) pairs are returned explicitly.
    """
    scaler: Dict[str, Tuple[float, float]] = {}
    for name in columns:
        values = table.column(name).astype(np.float64)
        mean, std = float(values.mean()), float(values.std() or 1.0)
        scaler[name] = (mean, std)
        table = table.with_column(name, (values - mean) / std)
    return table, scaler


def train_and_register(customers: Table, employers: Table, registry_dir: Path):
    """Fit logistic regression on the normalized matrix and save it versioned."""
    customers_scaled, customer_scaler = zscore_columns(customers, ["age", "income"])
    employers_scaled, employer_scaler = zscore_columns(employers, ["revenue", "employees"])
    # A star schema is a one-level join graph: every join leaves the fact table.
    graph = SchemaGraph("customers", [Join("customers.employer_id", "employers.employer_id")])
    dataset = normalized_from_schema(
        graph, {"customers": customers_scaled, "employers": employers_scaled},
        entity_features=["age", "income"],
        target_column="churned",
        features={"employers": ["revenue", "employees"]},
        sparse=False,
    )
    labels = binarize_labels(dataset.target)
    model = LogisticRegressionGD(max_iter=120, step_size=5e-4,
                                 update="exact").fit(dataset.matrix, labels)
    registry = ModelRegistry(registry_dir)
    version = registry.save("churn", model, dataset.matrix)
    print(f"registered churn model v{version} "
          f"(schema fingerprint {registry.load('churn').fingerprint[:12]}...)")
    return registry, dataset, customer_scaler, employer_scaler


def _apply_scaler(scaler, columns, matrix: np.ndarray) -> np.ndarray:
    means = np.array([scaler[c][0] for c in columns])
    stds = np.array([scaler[c][1] for c in columns])
    return (matrix - means) / stds


def serve(registry: ModelRegistry, dataset, employers: Table,
          customer_scaler, employer_scaler) -> dict:
    """Answer point, batch and ad-hoc requests, then refresh a table mid-flight."""
    service = ScoringService(registry.scorer("churn", dataset.matrix),
                             max_batch_size=256, cache_size=1024)

    # Point + batch requests for known customers (FK lookups, no join).
    single = service.predict_row(17)
    churn_probability = service.predict_proba_rows(np.arange(100))
    print(f"customer 17 -> label {single[0]:+.0f}; "
          f"mean churn probability of first 100: {float(churn_probability.mean()):.3f}")

    # An ad-hoc request: a brand-new customer of a *known* employer.  The
    # natural key is translated to an attribute row with the key->row lookup,
    # and the training-time scaler is applied to the raw features.
    spotlight = int(employers.column("employer_id")[employers.num_rows // 2])
    employer_rows = employers.positions_for_keys("employer_id", [spotlight])
    fresh_customer = _apply_scaler(customer_scaler, ["age", "income"],
                                   np.array([[35.0, 90.0]]))
    proba = service.predict_proba(fresh_customer, employer_rows.reshape(1, 1))
    print(f"new customer at employer {spotlight} -> "
          f"churn probability {float(proba[0, 0]):.3f}")

    # Freshness: that employer's revenue collapses; rebuild only this table's
    # partial scores and swap atomically -- the service keeps answering.
    revenue = employers.column("revenue").copy()
    revenue[employer_rows[0]] = 1.0
    refreshed = employers.with_column("revenue", revenue)
    service.update_table("table_0", _apply_scaler(
        employer_scaler, ["revenue", "employees"],
        refreshed.numeric_matrix(["revenue", "employees"])))
    proba_after = service.predict_proba(fresh_customer, employer_rows.reshape(1, 1))
    print(f"after the revenue collapse (snapshot v{service.stats()['snapshot_version']}) "
          f"-> churn probability {float(proba_after[0, 0]):.3f}")

    stats = service.stats()
    print(f"served {stats['requests']} requests in {stats['micro_batches']} micro-batches "
          f"({stats['cache_hits']} cache hits)")
    return {"proba_before": float(proba[0, 0]), "proba_after": float(proba_after[0, 0]),
            "stats": stats}


def main() -> None:
    customers, employers = build_tables()
    with tempfile.TemporaryDirectory() as tmp:
        registry, dataset, customer_scaler, employer_scaler = train_and_register(
            customers, employers, Path(tmp) / "registry")
        serve(registry, dataset, employers, customer_scaler, employer_scaler)


if __name__ == "__main__":
    main()
