"""Quickstart: build a normalized matrix from two CSV files and use it.

This mirrors the construction snippet in Section 3.2 of the paper: read the
entity table ``S`` and the attribute table ``R`` from CSV, build the sparse
indicator matrix ``K`` from the foreign key, wrap everything in a
``NormalizedMatrix`` and then run linear-algebra operators and an ML algorithm
directly on it -- no join is ever materialized.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from repro import LinearRegressionGD, LogisticRegressionGD, NormalizedMatrix, read_csv
from repro.ml import accuracy, binarize_labels, standardize
from repro.relational import pk_fk_indicator, write_csv
from repro.relational.table import Table


def write_example_tables(directory: Path) -> tuple[Path, Path]:
    """Create a tiny Customers / Employers pair of CSV files."""
    rng = np.random.default_rng(0)
    num_customers, num_employers = 1_000, 50
    employer_ids = np.concatenate([
        np.arange(num_employers),
        rng.integers(0, num_employers, size=num_customers - num_employers),
    ])
    rng.shuffle(employer_ids)
    customers = Table("customers", {
        "customer_id": np.arange(num_customers),
        "age": rng.uniform(20, 70, size=num_customers).round(1),
        "income": rng.uniform(20, 200, size=num_customers).round(1),
        "employer_id": employer_ids,
    })
    employers = Table("employers", {
        "employer_id": np.arange(num_employers),
        "revenue": rng.uniform(1, 500, size=num_employers).round(1),
        "employees": rng.integers(10, 10_000, size=num_employers).astype(float),
    })
    customers_path = directory / "customers.csv"
    employers_path = directory / "employers.csv"
    write_csv(customers, customers_path)
    write_csv(employers, employers_path)
    return customers_path, employers_path


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        customers_path, employers_path = write_example_tables(Path(tmp))

        # 1. Read the base tables (the paper's read.csv step).
        customers = read_csv(customers_path)
        employers = read_csv(employers_path)

        # 2. Build the indicator matrix K from the foreign key and wrap the
        #    base feature matrices in a normalized matrix.
        entity_features = standardize(customers.numeric_matrix(["age", "income"]))
        attribute_features = standardize(employers.numeric_matrix(["revenue", "employees"]))
        indicator = pk_fk_indicator(customers, "employer_id", employers, "employer_id")
        normalized = NormalizedMatrix(entity_features, [indicator], [attribute_features])
        print(f"normalized matrix: shape={normalized.shape}, "
              f"tuple ratio={normalized.tuple_ratio:.1f}, "
              f"feature ratio={normalized.feature_ratio:.1f}, "
              f"redundancy={normalized.redundancy_ratio():.1f}x")

        # 3. Linear algebra over the normalized matrix -- every operator of
        #    Table 1 works and never materializes the join.
        print("column sums:", np.round(normalized.colsums().ravel(), 1))
        print("gram matrix shape:", normalized.crossprod().shape)
        weights = np.ones((normalized.shape[1], 1)) * 0.01
        print("first scores:", np.round((normalized @ weights)[:3].ravel(), 3))

        # 4. Train an ML algorithm directly on the normalized matrix.
        true_weights = np.array([[1.0], [0.5], [0.8], [-0.6]])
        target = binarize_labels(np.asarray(normalized @ true_weights), threshold=0.0)
        model = LogisticRegressionGD(max_iter=100, step_size=1e-2, update="exact")
        model.fit(normalized, target)
        predictions = model.predict(normalized)
        print(f"training accuracy of factorized logistic regression: "
              f"{accuracy(target, predictions):.3f}")

        # 5. The factorized result is identical to training on the join output.
        materialized = np.asarray(normalized.materialize())
        standard = LogisticRegressionGD(max_iter=100, step_size=1e-2, update="exact")
        standard.fit(materialized, target)
        print("factorized == materialized coefficients:",
              bool(np.allclose(model.coef_, standard.coef_)))

        # 6. Let the cost-based planner choose how to run a fit: layout,
        #    shard count and -- for GD linear regression -- the eager loop or
        #    the co-factor form (crossprod(T) and T^T Y once, then d x d steps).
        y = np.asarray(normalized @ true_weights)
        auto = LinearRegressionGD(max_iter=50, step_size=1e-4, engine="auto")
        auto.fit(normalized, y)
        eager = LinearRegressionGD(max_iter=50, step_size=1e-4).fit(normalized, y)
        print(f"planner's choice for linear regression: {auto.plan_.chosen.label}")
        print("auto == eager coefficients:",
              bool(np.allclose(auto.coef_, eager.coef_, rtol=1e-8, atol=1e-10)))

if __name__ == "__main__":
    main()
