"""End-to-end integration tests: CSV files -> tables -> normalized matrix -> ML.

These tests walk the full pipeline a downstream user would follow (the paper's
insurance-churn example from Section 2): read base tables from CSV, one-hot
encode features, build the indicator matrices, wrap everything in a
NormalizedMatrix via the morpheus factory and train each ML algorithm -- then
check the factorized models agree with the models trained on the materialized
join output.
"""

import numpy as np
import pytest

from repro.core.decision import DecisionRule, morpheus
from repro.core.normalized_matrix import NormalizedMatrix
from repro.la.ops import hstack
from repro.ml import (
    GNMF,
    KMeans,
    LinearRegressionNE,
    LogisticRegressionGD,
    binarize_labels,
)
from repro.relational import (
    Table,
    encode_features,
    join_pk_fk,
    pk_fk_indicator,
    read_csv,
    write_csv,
)


@pytest.fixture(scope="module")
def churn_tables(tmp_path_factory):
    """Write the Customers / Employers tables to CSV and read them back."""
    rng = np.random.default_rng(99)
    num_customers, num_employers = 300, 30
    employer_ids = np.concatenate([
        np.arange(num_employers), rng.integers(0, num_employers, size=num_customers - num_employers)
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
        "country": rng.choice(np.array(["us", "uk", "de", "in"]), size=num_employers),
    })
    directory = tmp_path_factory.mktemp("churn")
    write_csv(customers, directory / "customers.csv")
    write_csv(employers, directory / "employers.csv")
    return read_csv(directory / "customers.csv"), read_csv(directory / "employers.csv")


@pytest.fixture(scope="module")
def churn_matrices(churn_tables):
    """Build the normalized and materialized views plus a churn target."""
    customers, employers = churn_tables
    entity_features = encode_features(customers, columns=["age", "income"], sparse=False)
    attribute_features = encode_features(employers, columns=["revenue", "country"], sparse=False)
    indicator = pk_fk_indicator(customers, "employer_id", employers, "employer_id")
    normalized = NormalizedMatrix(entity_features.matrix, [indicator], [attribute_features.matrix])
    materialized = np.asarray(normalized.materialize())
    rng = np.random.default_rng(7)
    weights = rng.standard_normal((materialized.shape[1], 1))
    target = binarize_labels(materialized @ weights + 0.1 * rng.standard_normal((materialized.shape[0], 1)),
                             threshold=0.0)
    return normalized, materialized, target


class TestPipelineConstruction:
    def test_csv_roundtrip_preserves_rows(self, churn_tables):
        customers, employers = churn_tables
        assert customers.num_rows == 300
        assert employers.num_rows == 30

    def test_materialized_join_matches_normalized(self, churn_tables, churn_matrices):
        customers, employers = churn_tables
        normalized, materialized, _ = churn_matrices
        joined = join_pk_fk(customers, "employer_id", employers, "employer_id")
        assert joined.num_rows == materialized.shape[0]
        assert np.allclose(joined.column("revenue"),
                           materialized[:, 2])  # columns: age, income, revenue, country...

    def test_morpheus_factory_factorizes_this_schema(self, churn_tables):
        customers, employers = churn_tables
        entity = encode_features(customers, columns=["age", "income"], sparse=False).matrix
        attribute = encode_features(employers, columns=["revenue", "country"], sparse=False).matrix
        indicator = pk_fk_indicator(customers, "employer_id", employers, "employer_id")
        out = morpheus(entity, [indicator], [attribute])
        # tuple ratio 10, feature ratio (1 + 4 countries) / 2 >= 1 -> factorized
        assert isinstance(out, NormalizedMatrix)

    def test_morpheus_factory_materializes_when_told(self, churn_tables):
        customers, employers = churn_tables
        entity = encode_features(customers, columns=["age", "income"], sparse=False).matrix
        attribute = encode_features(employers, columns=["revenue", "country"], sparse=False).matrix
        indicator = pk_fk_indicator(customers, "employer_id", employers, "employer_id")
        out = morpheus(entity, [indicator], [attribute],
                       rule=DecisionRule(tuple_ratio_threshold=1000))
        assert isinstance(out, np.ndarray)


class TestEndToEndML:
    def test_logistic_regression_factorized_vs_materialized(self, churn_matrices):
        normalized, materialized, target = churn_matrices
        factorized = LogisticRegressionGD(max_iter=10, step_size=1e-3).fit(normalized, target)
        standard = LogisticRegressionGD(max_iter=10, step_size=1e-3).fit(materialized, target)
        assert np.allclose(factorized.coef_, standard.coef_, atol=1e-8)

    def test_linear_regression_factorized_vs_materialized(self, churn_matrices):
        normalized, materialized, _ = churn_matrices
        y = materialized @ np.ones((materialized.shape[1], 1))
        factorized = LinearRegressionNE().fit(normalized, y)
        standard = LinearRegressionNE().fit(materialized, y)
        assert np.allclose(factorized.coef_, standard.coef_, atol=1e-6)

    def test_kmeans_factorized_vs_materialized(self, churn_matrices):
        normalized, materialized, _ = churn_matrices
        factorized = KMeans(num_clusters=3, max_iter=8, seed=1).fit(normalized)
        standard = KMeans(num_clusters=3, max_iter=8, seed=1).fit(materialized)
        assert np.array_equal(factorized.labels_, standard.labels_)

    def test_gnmf_factorized_vs_materialized(self, churn_matrices):
        normalized, materialized, _ = churn_matrices
        positive = normalized.apply(np.abs)
        factorized = GNMF(rank=3, max_iter=8, seed=2).fit(positive)
        standard = GNMF(rank=3, max_iter=8, seed=2).fit(np.abs(materialized))
        assert np.allclose(factorized.w_, standard.w_, atol=1e-7)

    def test_learned_model_is_predictive(self, churn_matrices):
        normalized, _, target = churn_matrices
        model = LogisticRegressionGD(max_iter=150, step_size=5e-3, update="exact")
        model.fit(normalized, target)
        predictions = model.predict(normalized)
        assert float(np.mean(predictions == target.ravel().reshape(-1, 1))) > 0.85


class TestSparsePipeline:
    def test_sparse_encoded_features_flow_through(self, churn_tables):
        customers, employers = churn_tables
        entity = encode_features(customers, columns=["age", "income"], sparse=True).matrix
        attribute = encode_features(employers, columns=["revenue", "country"], sparse=True).matrix
        indicator = pk_fk_indicator(customers, "employer_id", employers, "employer_id")
        normalized = NormalizedMatrix(entity, [indicator], [attribute])
        dense_reference = np.asarray(hstack([entity, indicator @ attribute]).todense())
        assert np.allclose(normalized.to_dense(), dense_reference)
        w = np.ones((normalized.shape[1], 1))
        assert np.allclose(normalized @ w, dense_reference @ w)
