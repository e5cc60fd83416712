"""Relational substrate: tables, schemas, joins, and feature encoding.

The paper assumes the input arrives as a *normalized* relational schema -- an
entity table ``S`` with one or more foreign keys into attribute tables
``R1..Rq`` (star-schema PK-FK), or two tables related by a general M:N
equi-join.  This subpackage provides everything needed to go from raw tabular
data to the matrices the Morpheus core consumes:

* :class:`repro.relational.table.Table` -- a small column-oriented table with
  typed columns and schema metadata.
* :mod:`repro.relational.schema` -- column and table descriptors, and the one
  way to declare PK-FK joins: a :class:`SchemaGraph` of :class:`Join` edges
  rooted at the fact table.  A star schema is a one-level graph (every join
  starts at the fact table); a snowflake adds alias -> alias hops.
* :mod:`repro.relational.join` -- PK-FK joins and M:N equi-joins, including
  construction of the indicator matrices ``K`` and ``(IS, IR)`` that define
  the normalized matrix.
* :mod:`repro.relational.pipeline` -- :func:`normalized_from_schema` lifts a
  graph into a normalized matrix; :func:`mn_normalized_from_tables` builds
  the M:N form.
* :mod:`repro.relational.encoding` -- one-hot encoding of categorical columns
  into sparse feature matrices (how the paper's "real" datasets become sparse
  matrices, Table 6).
* :mod:`repro.relational.csv_io` -- CSV reading/writing so the quickstart
  mirrors the paper's R snippet (``read.csv`` followed by ``sparseMatrix``),
  and :func:`stream_normalized_batches`, which streams the same graph's fact
  table from a CSV as factorized mini-batches.
"""

from repro.relational.schema import (
    Column,
    ColumnType,
    Join,
    Mapping,
    SchemaGraph,
    TableSchema,
    to_mapping,
)
from repro.relational.table import Table
from repro.relational.join import (
    pk_fk_indicator,
    join_pk_fk,
    mn_join_indicators,
    join_mn,
    drop_unreferenced,
)
from repro.relational.encoding import OneHotEncoder, encode_features, FeatureMatrix
from repro.relational.csv_io import (
    read_csv,
    read_csv_chunks,
    stream_normalized_batches,
    write_csv,
)
from repro.relational.pipeline import (
    NormalizedDataset,
    normalized_from_schema,
    mn_normalized_from_tables,
)

__all__ = [
    "Column",
    "ColumnType",
    "Join",
    "Mapping",
    "SchemaGraph",
    "TableSchema",
    "Table",
    "to_mapping",
    "pk_fk_indicator",
    "join_pk_fk",
    "mn_join_indicators",
    "join_mn",
    "drop_unreferenced",
    "OneHotEncoder",
    "encode_features",
    "FeatureMatrix",
    "read_csv",
    "read_csv_chunks",
    "stream_normalized_batches",
    "write_csv",
    "NormalizedDataset",
    "normalized_from_schema",
    "mn_normalized_from_tables",
]
