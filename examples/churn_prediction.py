"""Churn prediction over normalized data: the paper's motivating example.

Section 2 of the paper motivates Morpheus with an insurance analyst who joins
``Customers (CustomerID, Churn, Age, Income, EmployerID)`` with
``Employers (EmployerID, Revenue, Country)`` to train a churn classifier.
This example builds that scenario end to end:

* generate the two base tables (with a categorical ``Country`` column that is
  one-hot encoded into sparse features),
* let the ``morpheus`` factory decide -- via the heuristic decision rule --
  whether to factorize,
* train logistic regression on a train split and evaluate on a held-out split,
* compare wall-clock time and model quality of the factorized ("F") and
  materialized ("M") executions.

Run with::

    python examples/churn_prediction.py
"""

from __future__ import annotations

import time

import numpy as np

from repro import LogisticRegressionGD, NormalizedMatrix
from repro.core.decision import DecisionRule
from repro.ml import accuracy, binarize_labels, standardize, train_test_split_rows
from repro.relational import Table, encode_features, pk_fk_indicator


def build_tables(num_customers: int = 100_000, num_employers: int = 1_000, seed: int = 1):
    rng = np.random.default_rng(seed)
    employer_ids = np.concatenate([
        np.arange(num_employers),
        rng.integers(0, num_employers, size=num_customers - num_employers),
    ])
    rng.shuffle(employer_ids)
    customers = Table("customers", {
        "customer_id": np.arange(num_customers),
        "age": rng.uniform(18, 80, size=num_customers),
        "income": rng.uniform(15, 250, size=num_customers),
        "employer_id": employer_ids,
    })
    countries = rng.choice(np.array(["us", "uk", "de", "in", "br", "jp", "fr", "cn"]),
                           size=num_employers)
    industries = rng.choice(np.array([f"industry_{i}" for i in range(100)]), size=num_employers)
    employers = Table("employers", {
        "employer_id": np.arange(num_employers),
        "revenue": rng.uniform(0.5, 900, size=num_employers),
        "headcount": rng.uniform(10, 10_000, size=num_employers),
        "founded": rng.uniform(1900, 2016, size=num_employers),
        "country": countries,
        "industry": industries,
    })
    return customers, employers


def main() -> None:
    customers, employers = build_tables()

    # Encode features: numeric columns pass through (standardized so gradient
    # descent behaves), Country and Industry are one-hot encoded.
    entity = standardize(encode_features(customers, columns=["age", "income"],
                                         sparse=False).matrix)
    attribute = encode_features(
        employers, columns=["revenue", "headcount", "founded", "country", "industry"],
        sparse=False).matrix
    attribute[:, :3] = standardize(attribute[:, :3])
    indicator = pk_fk_indicator(customers, "employer_id", employers, "employer_id")

    normalized = NormalizedMatrix(entity, [indicator], [attribute])
    rule = DecisionRule()
    print("schema statistics:",
          f"tuple ratio={normalized.tuple_ratio:.1f},",
          f"feature ratio={normalized.feature_ratio:.1f}")
    print("decision rule:", rule.explain(normalized.tuple_ratio, normalized.feature_ratio))

    # Synthesize a churn target correlated with the joined features (the
    # analyst's hunch: employees of rich employers in rich countries churn less).
    materialized = np.asarray(normalized.materialize())
    rng = np.random.default_rng(7)
    weights = rng.standard_normal((materialized.shape[1], 1))
    churn = binarize_labels(materialized @ weights + 0.3 * rng.standard_normal((materialized.shape[0], 1)),
                            threshold=0.0)

    train_idx, test_idx = train_test_split_rows(customers.num_rows, test_fraction=0.25, seed=3)

    # The split happens on the entity table; the attribute table is untouched,
    # so the train view is just another normalized matrix.
    train_normalized = NormalizedMatrix(entity[train_idx], [indicator[train_idx, :]], [attribute])
    test_normalized = NormalizedMatrix(entity[test_idx], [indicator[test_idx, :]], [attribute])
    train_materialized = materialized[train_idx]
    test_materialized = materialized[test_idx]

    settings = dict(max_iter=50, step_size=5e-3, update="exact")

    start = time.perf_counter()
    factorized = LogisticRegressionGD(**settings).fit(train_normalized, churn[train_idx])
    factorized_seconds = time.perf_counter() - start

    start = time.perf_counter()
    standard = LogisticRegressionGD(**settings).fit(train_materialized, churn[train_idx])
    materialized_seconds = time.perf_counter() - start

    factorized_accuracy = accuracy(churn[test_idx], factorized.predict(test_normalized))
    standard_accuracy = accuracy(churn[test_idx], standard.predict(test_materialized))

    print(f"\nfactorized  (F): {factorized_seconds:.3f}s, test accuracy {factorized_accuracy:.3f}")
    print(f"materialized(M): {materialized_seconds:.3f}s, test accuracy {standard_accuracy:.3f}")
    print(f"speed-up of F over M: {materialized_seconds / factorized_seconds:.2f}x")
    print("identical models:", bool(np.allclose(factorized.coef_, standard.coef_, atol=1e-8)))


if __name__ == "__main__":
    main()
