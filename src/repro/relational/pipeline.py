"""High-level builders: from relational tables straight to normalized matrices.

These helpers tie the relational substrate and the Morpheus core together so a
user can go from base :class:`~repro.relational.table.Table` objects to a
ready-to-train normalized matrix in one call -- encoding features and building
indicator matrices.  PK-FK schemas, star and snowflake alike, are declared as
one :class:`~repro.relational.schema.SchemaGraph` (:func:`normalized_from_schema`;
:func:`repro.relational.csv_io.stream_normalized_batches` streams the same
graph from a fact-table CSV); :func:`mn_normalized_from_tables` builds the
two-table M:N form.  Whether to factorize at all is the planner's call
(``engine="auto"``) or :func:`repro.core.decision.morpheus`'s.

They return a :class:`NormalizedDataset` carrying the normalized matrix, the
feature names (useful for model inspection) and the target vector, mirroring
what a user of the original Morpheus R package would assemble by hand.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.normalized_matrix import NormalizedMatrix
from repro.exceptions import SchemaError
from repro.la.indicator import Indicator
from repro.la.types import MatrixLike
from repro.relational.encoding import encode_features
from repro.relational.join import mn_join_indicators, pk_fk_indicator
from repro.relational.schema import Join, SchemaGraph
from repro.relational.table import Table


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
    """Lift a declarative :class:`SchemaGraph` into a normalized matrix.

    The one in-memory builder for PK-FK schemas: a star is a graph whose
    joins all start at the fact table, a snowflake adds alias -> alias hops.
    Each alias gets one indicator over the fact rows -- its first hop times
    the composed tail of the hops behind it (:class:`_Dimensions`), so a
    multi-hop alias stores one code per fact row, composed once.

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
    sparse:
        Encode features as sparse CSR (the default, matching the paper's
        treatment of one-hot encoded data) or dense.
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

    feature_names: List[str] = []
    entity_matrix = None
    if entity_features is None:
        fact_keys = {j.master.column for j in graph.joins if j.master.table == graph.fact}
        entity_features = [c.name for c in fact.schema.feature_columns()
                           if c.name not in fact_keys]
    if target_column is not None:
        entity_features = [c for c in entity_features if c != target_column]
    if entity_features:
        encoded = encode_features(fact, columns=list(entity_features), sparse=sparse)
        entity_matrix = encoded.matrix
        feature_names.extend(encoded.feature_names)
    # The dimension side is built after the (largest) entity block on purpose:
    # in the other order, glibc malloc hands the memory of a discarded build
    # back to the OS, and the next build of a set-up loop page-faults it in
    # again (about 15% slower set-ups on the ledger's snowflake-auto, 2 vCPU).
    dimensions = _Dimensions(graph, tables, features, sparse)
    feature_names.extend(dimensions.feature_names)

    indicators = dimensions.indicators(lambda join: pk_fk_indicator(
        fact, join.master.column, tables[join.detail.table], join.detail.column))
    normalized = NormalizedMatrix(entity_matrix, indicators, dimensions.attributes)

    target = None
    if target_column is not None:
        target = _target_vector(fact, target_column)
    return NormalizedDataset(matrix=normalized, feature_names=feature_names,
                             target=target)


class _Dimensions:
    """The dimension side of a :class:`SchemaGraph`, shared by both builders.

    Everything that does not depend on the fact rows, built once.  Per alias,
    in resolve order: its encoded attribute matrix, its ``alias.column``
    feature names, and its hop path as ``(first, tail)`` -- the join leaving
    the fact table, and the composed indicator of the hops after it (from
    the first hop's detail rows to the alias's rows; ``None`` for a one-hop
    alias).  Each hop behind a tail is built once, and a tail extends its
    master's tail, so no hop or composition repeats across aliases.  A
    fact-side builder (the whole fact table in memory, or one streamed
    chunk) then supplies only the first hops: see :meth:`indicators`.

    Feature defaults: every feature-typed column of the dimension table that
    the graph does not use as a join key; *features* (alias -> columns)
    overrides them per alias.
    """

    def __init__(self, graph: SchemaGraph, tables, features: Optional[dict],
                 sparse: bool):
        keys_used: dict = {}
        for join in graph.joins:
            keys_used.setdefault(join.alias, set()).add(join.detail.column)
            keys_used.setdefault(join.master.table, set()).add(join.master.column)
        overrides = features or {}
        self.feature_names: List[str] = []
        self.attributes: list = []
        paths: dict = {}
        for join in graph.resolve_order():
            alias, master, detail = join.alias, join.master.table, tables[join.detail.table]
            if master == graph.fact:
                paths[alias] = (join, None)
            else:
                first, tail = paths[master]
                hop = pk_fk_indicator(tables[graph.table_for(master)],
                                      join.master.column, detail, join.detail.column)
                paths[alias] = (first, hop if tail is None else tail @ hop)
            columns = overrides.get(alias)
            if columns is None:
                columns = [c.name for c in detail.schema.feature_columns()
                           if c.name not in keys_used[alias]]
            encoded = encode_features(detail, columns=list(columns), sparse=sparse)
            self.attributes.append(encoded.matrix)
            self.feature_names.extend(f"{alias}.{name}" for name in encoded.feature_names)
        self.paths: List[Tuple[Join, Optional[Indicator]]] = list(paths.values())

    def indicators(self, first_hop: Callable[[Join], Indicator]) -> List[Indicator]:
        """One indicator per alias over the fact rows.

        *first_hop* builds the fact-side indicator of one join leaving the
        fact table; it runs once per such join (the aliases behind it reuse
        it), and each multi-hop alias composes its tail's codes in once.
        """
        built: dict = {}
        out = []
        for first, tail in self.paths:
            if first not in built:
                built[first] = first_hop(first)
            out.append(built[first] if tail is None else built[first] @ tail)
        return out


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
