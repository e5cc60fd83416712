"""Synthetic data generators for the paper's operator and ML sweeps.

Table 4 of the paper defines the PK-FK sweep in terms of the tuple ratio
``TR = n_S / n_R`` and the feature ratio ``FR = d_R / d_S``; Table 5 defines
the M:N sweep in terms of the table sizes, feature counts and the join
attribute's domain size ``n_U``.  The generators here take exactly those knobs
(plus a global ``scale`` so the laptop-scale benchmarks can shrink the
absolute sizes while preserving the ratios) and return both the base matrices
and the ready-made normalized matrix, along with a target vector for the
supervised algorithms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.exceptions import DataGenerationError
from repro.la.ops import indicator_from_labels
from repro.core.normalized_matrix import NormalizedMatrix


@dataclass
class SyntheticPKFKConfig:
    """Dimensions of a synthetic star-schema PK-FK dataset.

    ``num_entity_rows`` is ``n_S``; each attribute table ``i`` has
    ``num_attribute_rows[i]`` rows (``n_Ri``) and ``num_attribute_features[i]``
    features (``d_Ri``); the entity table has ``num_entity_features`` (``d_S``)
    features.  A single-join dataset is just one entry in each list.
    """

    num_entity_rows: int
    num_entity_features: int
    num_attribute_rows: List[int]
    num_attribute_features: List[int]
    target_noise: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_entity_rows <= 0:
            raise DataGenerationError("num_entity_rows must be positive")
        if self.num_entity_features < 0:
            raise DataGenerationError("num_entity_features must be non-negative")
        if len(self.num_attribute_rows) != len(self.num_attribute_features):
            raise DataGenerationError("attribute row/feature lists must have equal length")
        if not self.num_attribute_rows:
            raise DataGenerationError("at least one attribute table is required")
        for n_r in self.num_attribute_rows:
            if n_r <= 0:
                raise DataGenerationError("attribute tables must have at least one row")
            if n_r > self.num_entity_rows:
                raise DataGenerationError(
                    "n_R > n_S would leave unreferenced attribute rows; "
                    "shrink the attribute table or grow the entity table"
                )
        for d_r in self.num_attribute_features:
            if d_r <= 0:
                raise DataGenerationError("attribute tables must have at least one feature")

    @classmethod
    def from_ratios(cls, tuple_ratio: float, feature_ratio: float,
                    num_attribute_rows: int = 1000, num_entity_features: int = 20,
                    seed: int = 0) -> "SyntheticPKFKConfig":
        """Build a single-join config from (TR, FR), the paper's sweep knobs."""
        if tuple_ratio < 1:
            raise DataGenerationError("tuple_ratio must be >= 1")
        if feature_ratio <= 0:
            raise DataGenerationError("feature_ratio must be positive")
        n_s = int(round(tuple_ratio * num_attribute_rows))
        d_r = max(1, int(round(feature_ratio * num_entity_features)))
        return cls(
            num_entity_rows=n_s,
            num_entity_features=num_entity_features,
            num_attribute_rows=[num_attribute_rows],
            num_attribute_features=[d_r],
            seed=seed,
        )


@dataclass
class PKFKDataset:
    """A generated star-schema dataset: base matrices, indicators, target, and views."""

    entity: Optional[np.ndarray]
    indicators: List
    attributes: List[np.ndarray]
    target: np.ndarray
    config: SyntheticPKFKConfig = field(repr=False)

    @property
    def normalized(self) -> NormalizedMatrix:
        """The factorized view ("F" in the paper's plots)."""
        return NormalizedMatrix(self.entity, self.indicators, self.attributes)

    @property
    def materialized(self) -> np.ndarray:
        """The materialized single-table view ("M" in the paper's plots)."""
        return np.asarray(self.normalized.materialize())

    @property
    def tuple_ratio(self) -> float:
        return self.normalized.tuple_ratio

    @property
    def feature_ratio(self) -> float:
        return self.normalized.feature_ratio


def generate_pk_fk(config: SyntheticPKFKConfig) -> PKFKDataset:
    """Generate a synthetic star-schema PK-FK dataset.

    Feature values are standard Gaussian; foreign keys are drawn so that every
    attribute row is referenced at least once (the paper's standing
    assumption); the target is a noisy linear function of the joined features
    so the supervised algorithms have signal to fit.
    """
    rng = np.random.default_rng(config.seed)
    n_s = config.num_entity_rows
    entity = (rng.standard_normal((n_s, config.num_entity_features))
              if config.num_entity_features else None)

    indicators = []
    attributes = []
    for n_r, d_r in zip(config.num_attribute_rows, config.num_attribute_features):
        attributes.append(rng.standard_normal((n_r, d_r)))
        # Guarantee full coverage: first n_r entity rows reference each attribute
        # row once, the rest are uniform.
        labels = np.concatenate([
            np.arange(n_r, dtype=np.int64),
            rng.integers(0, n_r, size=n_s - n_r, dtype=np.int64),
        ])
        rng.shuffle(labels)
        indicators.append(indicator_from_labels(labels, num_columns=n_r))

    normalized = NormalizedMatrix(entity, indicators, attributes, validate=False)
    total_features = normalized.logical_cols
    true_weights = rng.standard_normal((total_features, 1))
    scores = normalized @ true_weights
    noise = config.target_noise * rng.standard_normal((n_s, 1))
    target = np.where(scores + noise > 0, 1.0, -1.0)
    return PKFKDataset(entity=entity, indicators=indicators, attributes=attributes,
                       target=target, config=config)


def generate_star(num_entity_rows: int, num_entity_features: int,
                  attribute_tables: Sequence[tuple], seed: int = 0) -> PKFKDataset:
    """Convenience wrapper: *attribute_tables* is a list of ``(n_R, d_R)`` pairs."""
    config = SyntheticPKFKConfig(
        num_entity_rows=num_entity_rows,
        num_entity_features=num_entity_features,
        num_attribute_rows=[n for n, _ in attribute_tables],
        num_attribute_features=[d for _, d in attribute_tables],
        seed=seed,
    )
    return generate_pk_fk(config)


@dataclass
class SyntheticMNConfig:
    """Dimensions of a synthetic two-table M:N join dataset (Table 5).

    Both tables have ``num_rows`` rows and ``num_features`` features; the join
    attribute takes ``domain_size`` (``n_U``) distinct values in each table.
    Smaller ``domain_size`` means more tuples repeat after the join
    (``domain_size == 1`` is the full Cartesian product).
    """

    num_rows: int
    num_features: int
    domain_size: int
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_rows <= 0 or self.num_features <= 0:
            raise DataGenerationError("num_rows and num_features must be positive")
        if not 1 <= self.domain_size <= self.num_rows:
            raise DataGenerationError("domain_size must be between 1 and num_rows")

    @property
    def uniqueness_degree(self) -> float:
        """The paper's join-attribute uniqueness degree ``n_U / n_S``."""
        return self.domain_size / self.num_rows


@dataclass
class MNDataset:
    """A generated M:N dataset: component matrices, indicators, target, views."""

    left: np.ndarray
    right: np.ndarray
    left_indicator: object
    right_indicator: object
    target: np.ndarray
    config: SyntheticMNConfig = field(repr=False)

    @property
    def normalized(self) -> NormalizedMatrix:
        return NormalizedMatrix(None, [self.left_indicator, self.right_indicator],
                                [self.left, self.right])

    @property
    def materialized(self) -> np.ndarray:
        return np.asarray(self.normalized.materialize())

    @property
    def output_rows(self) -> int:
        return self.left_indicator.shape[0]


def generate_mn(config: SyntheticMNConfig) -> MNDataset:
    """Generate a synthetic M:N equi-join dataset.

    Join-attribute values are assigned round-robin so every one of the
    ``domain_size`` values appears in both tables (no dangling rows), giving a
    join output of roughly ``num_rows^2 / domain_size`` rows.
    """
    rng = np.random.default_rng(config.seed)
    n, d, n_u = config.num_rows, config.num_features, config.domain_size
    left = rng.standard_normal((n, d))
    right = rng.standard_normal((n, d))

    left_join_values = np.arange(n, dtype=np.int64) % n_u
    right_join_values = np.arange(n, dtype=np.int64) % n_u
    rng.shuffle(left_join_values)
    rng.shuffle(right_join_values)

    # Enumerate the join output: group right rows by join value, then emit one
    # output row per (left row, matching right row) pair.
    right_groups: dict = {}
    for j, value in enumerate(right_join_values):
        right_groups.setdefault(int(value), []).append(j)
    left_rows: List[int] = []
    right_rows: List[int] = []
    for i, value in enumerate(left_join_values):
        for j in right_groups.get(int(value), ()):
            left_rows.append(i)
            right_rows.append(j)
    if not left_rows:
        raise DataGenerationError("M:N join produced no output rows")

    left_indicator = indicator_from_labels(np.asarray(left_rows), num_columns=n)
    right_indicator = indicator_from_labels(np.asarray(right_rows), num_columns=n)

    normalized = NormalizedMatrix(None, [left_indicator, right_indicator], [left, right],
                                  validate=False)
    true_weights = rng.standard_normal((2 * d, 1))
    scores = normalized @ true_weights
    target = np.where(scores > 0, 1.0, -1.0)
    return MNDataset(left=left, right=right, left_indicator=left_indicator,
                     right_indicator=right_indicator, target=target, config=config)
