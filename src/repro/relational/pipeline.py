"""High-level builders: from relational tables straight to normalized matrices.

These helpers tie the relational substrate and the Morpheus core together so a
user can go from base :class:`~repro.relational.table.Table` objects to a
ready-to-train normalized matrix in one call -- encoding features, building
indicator matrices and (optionally) applying the heuristic decision rule.

They return a :class:`NormalizedDataset` carrying the normalized matrix, the
feature names (useful for model inspection) and the target vector, mirroring
what a user of the original Morpheus R package would assemble by hand.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.decision import DecisionRule
from repro.core.normalized_matrix import NormalizedMatrix
from repro.exceptions import SchemaError
from repro.la.types import MatrixLike
from repro.relational.encoding import encode_features
from repro.relational.join import mn_join_indicators, pk_fk_indicator
from repro.relational.schema import SchemaGraph
from repro.relational.table import Table

#: A star-schema join edge: (foreign-key column in the entity table,
#: attribute table, primary-key column, feature columns of the attribute table).
JoinEdge = Tuple[str, Table, str, Sequence[str]]


@dataclass
class NormalizedDataset:
    """A ready-to-train dataset: data matrix, feature names and optional target."""

    matrix: Union[NormalizedMatrix, MatrixLike]
    feature_names: List[str]
    target: Optional[np.ndarray] = None

    @property
    def is_factorized(self) -> bool:
        return isinstance(self.matrix, NormalizedMatrix)

    @property
    def shape(self) -> tuple:
        return self.matrix.shape


def normalized_from_tables(entity: Table, edges: Sequence[JoinEdge],
                           entity_features: Sequence[str] = (),
                           target_column: Optional[str] = None,
                           sparse: bool = True,
                           decision_rule: Optional[DecisionRule] = None,
                           force_factorized: bool = True) -> NormalizedDataset:
    """Build a star-schema normalized matrix from an entity table and join edges.

    Parameters
    ----------
    entity:
        The entity table ``S`` (holds the foreign keys and, optionally, the
        target column).
    edges:
        One :data:`JoinEdge` per attribute table, in the column order the
        resulting matrix should use.
    entity_features:
        Feature columns of the entity table (may be empty, as in the paper's
        Movies / Yelp datasets).
    target_column:
        Optional column of the entity table to return as the target vector.
    sparse:
        Encode features as sparse CSR (the default, matching the paper's
        treatment of one-hot encoded data) or dense.
    decision_rule / force_factorized:
        With ``force_factorized=True`` (default) the factorized representation
        is always returned.  Otherwise the heuristic decision rule decides and
        the materialized matrix may be returned instead, exactly like the
        ``morpheus`` factory.
    """
    if not edges:
        raise SchemaError("normalized_from_tables needs at least one join edge")

    feature_names: List[str] = []
    entity_matrix = None
    if entity_features:
        encoded = encode_features(entity, columns=list(entity_features), sparse=sparse)
        entity_matrix = encoded.matrix
        feature_names.extend(encoded.feature_names)

    indicators = []
    attributes = []
    for fk_column, attribute_table, pk_column, attribute_columns in edges:
        indicator, _ = pk_fk_indicator(entity, fk_column, attribute_table, pk_column)
        encoded = encode_features(attribute_table, columns=list(attribute_columns), sparse=sparse)
        indicators.append(indicator)
        attributes.append(encoded.matrix)
        feature_names.extend(f"{attribute_table.name}.{name}" for name in encoded.feature_names)

    normalized = NormalizedMatrix(entity_matrix, indicators, attributes)
    matrix: Union[NormalizedMatrix, MatrixLike] = normalized
    if not force_factorized:
        rule = decision_rule or DecisionRule()
        if not rule.predict(normalized.tuple_ratio, normalized.feature_ratio):
            matrix = normalized.materialize()

    target = None
    if target_column is not None:
        target = _target_vector(entity, target_column)
    return NormalizedDataset(matrix=matrix, feature_names=feature_names, target=target)


def _target_vector(entity: Table, target_column: str) -> np.ndarray:
    """The target column as an ``(n, 1)`` float vector, with a typed error.

    Booleans are accepted (0/1 labels); any other non-numeric dtype raises a
    :class:`SchemaError` naming the column and its dtype instead of letting
    ``np.asarray(..., dtype=float)`` surface a bare ``ValueError``.
    """
    values = entity.column(target_column)
    if values.dtype == bool:
        values = values.astype(np.float64)
    if not np.issubdtype(values.dtype, np.number):
        raise SchemaError(
            f"target column {target_column!r} of table {entity.name!r} has "
            f"non-numeric dtype {values.dtype}; encode or cast it to numbers "
            "before training"
        )
    return np.asarray(values, dtype=np.float64).reshape(-1, 1)


def normalized_from_schema(graph: SchemaGraph, tables,
                           entity_features: Optional[Sequence[str]] = None,
                           target_column: Optional[str] = None,
                           sparse: bool = True,
                           features: Optional[dict] = None,
                           collapse: str = "never") -> NormalizedDataset:
    """Lift a declarative snowflake :class:`SchemaGraph` into a normalized matrix.

    Walks the graph's joins masters-first, builds one PK-FK hop indicator per
    join (memoized, so a shared dimension joined under two roles reuses the
    same hop), and gives each alias one indicator: the product of the hops
    along ``graph.join_path(alias)``, whose codes compose once here
    (``c2[c1]``), so a multi-hop alias stores one code per fact row.

    Parameters
    ----------
    graph:
        The validated join graph (fact table, joins, aliases).
    tables:
        Mapping of physical table name -> :class:`Table` realizing the graph.
    entity_features:
        Feature columns of the fact table.  ``None`` (default) derives them
        from the fact table's schema: all feature-typed columns that are not
        used as a join key in the graph.  Pass ``()`` for no entity features.
    target_column:
        Optional fact-table column returned as the target vector.
    features:
        Optional per-alias override: alias -> list of feature columns of that
        dimension table.  Aliases not listed fall back to the schema-derived
        default (feature columns minus the keys the graph uses).
    collapse:
        ``"never"`` (default) or ``"always"``; both build the same matrix,
        since every multi-hop alias is stored as its composed codes.  Any
        other value raises :class:`ValueError`.
    """
    if collapse not in ("never", "always"):
        raise ValueError(f"collapse must be 'never' or 'always', got {collapse!r}")

    graph.validate_tables(tables)
    fact = tables[graph.fact]

    # The graph's join keys never default to features: FK columns on the
    # master side, PK columns on the detail side.
    keys_used: dict = {graph.fact: set()}
    for join in graph.resolve_order():
        keys_used.setdefault(join.alias, set()).add(join.detail.column)
        master_name = join.master.table
        keys_used.setdefault(master_name, set()).add(join.master.column)

    def default_features(alias: str, table: Table) -> List[str]:
        used = keys_used.get(alias, set())
        return [c.name for c in table.schema.feature_columns() if c.name not in used]

    feature_names: List[str] = []
    entity_matrix = None
    if entity_features is None:
        entity_features = default_features(graph.fact, fact)
    if target_column is not None:
        entity_features = [c for c in entity_features if c != target_column]
    if entity_features:
        encoded = encode_features(fact, columns=list(entity_features), sparse=sparse)
        entity_matrix = encoded.matrix
        feature_names.extend(encoded.feature_names)

    # One hop indicator per join, memoized on the join object: a shared
    # dimension reached through two roles rebuilds nothing, and the cached
    # positions_for_keys index inside pk_fk_indicator dedupes the key hashing
    # across joins against the same detail table.
    hop_cache: dict = {}

    def hop_indicator(join):
        if join not in hop_cache:
            master_table = tables[graph.table_for(join.master.table)]
            detail_table = tables[join.detail.table]
            indicator, _ = pk_fk_indicator(
                master_table, join.master.column, detail_table, join.detail.column)
            hop_cache[join] = indicator
        return hop_cache[join]

    indicators = []
    attributes = []
    overrides = features or {}
    for join in graph.resolve_order():
        alias = join.alias
        detail_table = tables[join.detail.table]
        indicator = functools.reduce(
            operator.matmul, [hop_indicator(j) for j in graph.join_path(alias)])
        alias_features = overrides.get(alias)
        if alias_features is None:
            alias_features = default_features(alias, detail_table)
        encoded = encode_features(detail_table, columns=list(alias_features),
                                  sparse=sparse)
        indicators.append(indicator)
        attributes.append(encoded.matrix)
        feature_names.extend(f"{alias}.{name}" for name in encoded.feature_names)

    normalized = NormalizedMatrix(entity_matrix, indicators, attributes)

    target = None
    if target_column is not None:
        target = _target_vector(fact, target_column)
    return NormalizedDataset(matrix=normalized, feature_names=feature_names,
                             target=target)


def mn_normalized_from_tables(left: Table, left_join_column: str,
                              right: Table, right_join_column: str,
                              left_features: Sequence[str],
                              right_features: Sequence[str],
                              sparse: bool = True) -> NormalizedDataset:
    """Build a two-table M:N normalized matrix ``T = [I_S S, I_R R]`` from tables."""
    i_left, i_right = mn_join_indicators(left, left_join_column, right, right_join_column)
    left_encoded = encode_features(left, columns=list(left_features), sparse=sparse)
    right_encoded = encode_features(right, columns=list(right_features), sparse=sparse)
    matrix = NormalizedMatrix(None, [i_left, i_right],
                              [left_encoded.matrix, right_encoded.matrix])
    feature_names = [f"{left.name}.{name}" for name in left_encoded.feature_names]
    feature_names.extend(f"{right.name}.{name}" for name in right_encoded.feature_names)
    return NormalizedDataset(matrix=matrix, feature_names=feature_names)
