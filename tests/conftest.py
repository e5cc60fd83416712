"""Shared fixtures for the test suite.

The fixtures build small, fully deterministic datasets in every flavour the
library supports (dense / sparse base matrices, single and multi-join star
schemas, two-table M:N joins) so each test module can focus on the behaviour
under test rather than data plumbing.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
import scipy.sparse as sp

# Deterministic planner calibration for the whole suite: no timing probe, no
# writes to the user's ~/.cache.  Tests that exercise the probe or the cache
# modes call them explicitly (and override this env var where needed).
os.environ.setdefault("REPRO_CALIBRATION", "default")

from repro.core.normalized_matrix import NormalizedMatrix
from repro.core import MNNormalizedMatrix
from repro.datasets.synthetic import (
    SyntheticMNConfig,
    SyntheticPKFKConfig,
    generate_mn,
    generate_pk_fk,
    generate_star,
)
from repro.la.ops import indicator_from_labels


@pytest.fixture
def rng() -> np.random.Generator:
    """A seeded random generator for ad-hoc matrices inside tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def single_join_dense():
    """A small dense single-join PK-FK dataset: returns (dataset, TN, T)."""
    config = SyntheticPKFKConfig.from_ratios(
        tuple_ratio=6, feature_ratio=2, num_attribute_rows=40,
        num_entity_features=5, seed=7,
    )
    dataset = generate_pk_fk(config)
    return dataset, dataset.normalized, dataset.materialized


@pytest.fixture
def multi_join_dense():
    """A star-schema dataset with two attribute tables: returns (dataset, TN, T)."""
    dataset = generate_star(
        num_entity_rows=180, num_entity_features=4,
        attribute_tables=[(30, 6), (45, 3)], seed=11,
    )
    return dataset, dataset.normalized, dataset.materialized


@pytest.fixture
def single_join_sparse():
    """A single-join dataset whose base matrices are sparse CSR: (TN, T_dense)."""
    rng = np.random.default_rng(3)
    n_s, d_s, n_r, d_r = 120, 4, 24, 9
    entity = sp.random(n_s, d_s, density=0.3, random_state=5, format="csr")
    attribute = sp.random(n_r, d_r, density=0.25, random_state=6, format="csr")
    labels = np.concatenate([
        np.arange(n_r), rng.integers(0, n_r, size=n_s - n_r)
    ])
    rng.shuffle(labels)
    indicator = indicator_from_labels(labels, num_columns=n_r)
    normalized = NormalizedMatrix(entity, [indicator], [attribute])
    dense = np.asarray(normalized.materialize().todense())
    return normalized, dense


@pytest.fixture
def no_entity_features():
    """A normalized matrix whose entity table has no features (d_S = 0)."""
    rng = np.random.default_rng(9)
    n_s, n_r, d_r = 90, 15, 6
    attribute = rng.standard_normal((n_r, d_r))
    labels = np.concatenate([np.arange(n_r), rng.integers(0, n_r, size=n_s - n_r)])
    rng.shuffle(labels)
    indicator = indicator_from_labels(labels, num_columns=n_r)
    normalized = NormalizedMatrix(None, [indicator], [attribute])
    return normalized, np.asarray(normalized.materialize())


@pytest.fixture
def mn_dataset():
    """A two-table M:N dataset: returns (dataset, MN normalized matrix, T)."""
    config = SyntheticMNConfig(num_rows=50, num_features=6, domain_size=10, seed=13)
    dataset = generate_mn(config)
    return dataset, dataset.normalized, dataset.materialized


@pytest.fixture
def mn_multi_component():
    """A three-component M:N normalized matrix built by hand: (TN, T)."""
    rng = np.random.default_rng(21)
    n_out = 70
    components = []
    indicators = []
    for n_rows, width, seed in [(14, 3, 1), (10, 5, 2), (7, 2, 3)]:
        local = np.random.default_rng(seed)
        components.append(local.standard_normal((n_rows, width)))
        labels = np.concatenate([np.arange(n_rows), local.integers(0, n_rows, size=n_out - n_rows)])
        local.shuffle(labels)
        indicators.append(indicator_from_labels(labels, num_columns=n_rows))
    normalized = MNNormalizedMatrix(indicators, components)
    return normalized, np.asarray(normalized.materialize())
