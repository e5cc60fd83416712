"""Schema metadata for the relational substrate.

Schemas are deliberately lightweight: column roles per table, and one
declarative PK-FK join graph (:class:`SchemaGraph` of :class:`Join` edges)
that describes star and snowflake layouts alike -- a star is a graph whose
joins all start at the fact table.  Enough to validate the layout and drive
indicator-matrix construction, not a full SQL catalog.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

from repro.exceptions import SchemaError


class ColumnType(enum.Enum):
    """Logical column types used by the feature encoder.

    ``NUMERIC`` columns become a single dense feature; ``CATEGORICAL`` columns
    are one-hot encoded into one sparse feature per distinct value; ``KEY``
    columns identify rows (primary keys) or reference them (foreign keys) and
    are never encoded as features unless explicitly requested; ``TARGET``
    marks the supervised-learning label ``Y``.
    """

    NUMERIC = "numeric"
    CATEGORICAL = "categorical"
    KEY = "key"
    TARGET = "target"


@dataclass(frozen=True)
class Column:
    """A single column: a name plus its logical type."""

    name: str
    ctype: ColumnType = ColumnType.NUMERIC

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("column name must be non-empty")


@dataclass
class TableSchema:
    """Schema of one table: ordered columns plus an optional primary key."""

    name: str
    columns: List[Column]
    primary_key: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("table name must be non-empty")
        names = [c.name for c in self.columns]
        if len(names) != len(set(names)):
            raise SchemaError(f"table {self.name!r} has duplicate column names")
        if self.primary_key is not None and self.primary_key not in names:
            raise SchemaError(
                f"table {self.name!r}: primary key {self.primary_key!r} is not a column"
            )

    @property
    def column_names(self) -> List[str]:
        return [c.name for c in self.columns]

    def column(self, name: str) -> Column:
        for col in self.columns:
            if col.name == name:
                return col
        raise SchemaError(f"table {self.name!r} has no column {name!r}")

    def feature_columns(self) -> List[Column]:
        """Columns that should be encoded as features (numeric + categorical)."""
        return [c for c in self.columns if c.ctype in (ColumnType.NUMERIC, ColumnType.CATEGORICAL)]

    def target_column(self) -> Optional[Column]:
        targets = [c for c in self.columns if c.ctype is ColumnType.TARGET]
        if len(targets) > 1:
            raise SchemaError(f"table {self.name!r} declares more than one target column")
        return targets[0] if targets else None


# ---------------------------------------------------------------------------
# Declarative join frontend: mappings, joins, schema graphs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Mapping:
    """A ``(table-or-alias, column)`` reference, the atom of join declarations.

    The ``table`` side names either the fact table or a join *alias* (a role a
    dimension table plays in the graph), never a physical table directly --
    which is what lets one shared dimension appear under two roles.
    """

    table: str
    column: str

    def __post_init__(self) -> None:
        if not self.table or not self.column:
            raise SchemaError("a mapping needs both a table/alias and a column")

    def __str__(self) -> str:
        return f"{self.table}.{self.column}"


#: Anything :func:`to_mapping` can coerce: ``"table.column"`` strings,
#: ``(table, column)`` pairs, ``{"table": ..., "column": ...}`` dicts, or a
#: :class:`Mapping` itself.
MappingLike = Union["Mapping", str, Sequence[str], Dict[str, str]]


def to_mapping(obj: MappingLike) -> Mapping:
    """Coerce the accepted spellings of a column reference into a :class:`Mapping`."""
    if isinstance(obj, Mapping):
        return obj
    if isinstance(obj, str):
        if "." not in obj:
            raise SchemaError(
                f"mapping string {obj!r} must be of the form 'table.column'"
            )
        table, column = obj.split(".", 1)
        return Mapping(table, column)
    if isinstance(obj, dict):
        try:
            return Mapping(obj["table"], obj["column"])
        except KeyError as exc:
            raise SchemaError(
                f"mapping dict needs 'table' and 'column' keys, got {sorted(obj)}"
            ) from exc
    if isinstance(obj, (tuple, list)) and len(obj) == 2:
        return Mapping(obj[0], obj[1])
    raise SchemaError(f"cannot interpret {obj!r} as a table.column mapping")


@dataclass(frozen=True)
class Join:
    """One directed PK-FK edge of a join graph.

    ``master`` is the foreign-key side (the fact table or an already-joined
    alias -- the latter is what makes a hop attribute -> attribute); ``detail``
    is the primary-key side, the table being joined in.  ``alias`` names the
    role the detail table plays; it defaults to the detail table's name and
    must be unique in the graph, so a shared dimension joined twice gets two
    aliases (following the mappings/joins style of cubes' star schema layer).
    """

    master: Mapping
    detail: Mapping
    alias: Optional[str] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "master", to_mapping(self.master))
        object.__setattr__(self, "detail", to_mapping(self.detail))
        if self.alias is None:
            object.__setattr__(self, "alias", self.detail.table)

    def __str__(self) -> str:
        role = f" as {self.alias}" if self.alias != self.detail.table else ""
        return f"{self.master} -> {self.detail}{role}"


class SchemaGraph:
    """A validated PK-FK join graph rooted at one fact table.

    A star schema (the paper's Section 3.5) is the one-level case: every join
    starts at the fact table.  A join whose master is an alias makes a
    snowflake hop.  The graph is declarative: joins may be listed in any order, each naming
    its master side by fact name or alias.  Construction checks alias
    uniqueness, that every master is reachable, and that the graph is acyclic
    and connected (every alias resolves to a path from the fact table);
    :meth:`resolve_order` returns the joins topologically sorted so builders
    can construct hop indicators masters-first.
    """

    def __init__(self, fact: str, joins: Sequence[Join]):
        if not fact:
            raise SchemaError("a schema graph needs a fact table name")
        if not joins:
            raise SchemaError("a schema graph needs at least one join")
        self.fact = fact
        self.joins: List[Join] = [
            j if isinstance(j, Join) else Join(*j) for j in joins
        ]
        self._by_alias: Dict[str, Join] = {}
        for join in self.joins:
            if join.alias == fact:
                raise SchemaError(
                    f"join alias {join.alias!r} collides with the fact table name"
                )
            if join.alias in self._by_alias:
                raise SchemaError(
                    f"duplicate join alias {join.alias!r}; give the shared "
                    "dimension a distinct alias per role"
                )
            self._by_alias[join.alias] = join
        self._order = self._resolve()

    # -- structure -------------------------------------------------------------

    @property
    def aliases(self) -> List[str]:
        """All join aliases in topological (masters-first) order."""
        return [j.alias for j in self._order]

    def join_for(self, alias: str) -> Join:
        try:
            return self._by_alias[alias]
        except KeyError:
            raise SchemaError(
                f"schema graph has no alias {alias!r} "
                f"(known: {sorted(self._by_alias)})"
            ) from None

    def table_for(self, alias: str) -> str:
        """The physical table name behind an alias (the fact maps to itself)."""
        if alias == self.fact:
            return self.fact
        return self.join_for(alias).detail.table

    def _resolve(self) -> List[Join]:
        """Topologically order the joins; raise on unknown masters or cycles."""
        resolved = {self.fact}
        order: List[Join] = []
        pending = list(self.joins)
        while pending:
            ready = [j for j in pending if j.master.table in resolved]
            if not ready:
                unknown = sorted({j.master.table for j in pending}
                                 - set(self._by_alias) - {self.fact})
                if unknown:
                    raise SchemaError(
                        f"join master(s) {unknown} are neither the fact table "
                        f"{self.fact!r} nor a declared alias"
                    )
                raise SchemaError(
                    "schema graph contains a join cycle through aliases "
                    f"{sorted(j.alias for j in pending)}"
                )
            for join in ready:
                resolved.add(join.alias)
                order.append(join)
                pending.remove(join)
        return order

    def resolve_order(self) -> List[Join]:
        """Joins sorted masters-first (declaration order among ready joins)."""
        return list(self._order)

    # -- validation against concrete tables ------------------------------------

    def validate_tables(self, tables: Dict[str, object]) -> None:
        """Check that *tables* (name -> Table) can realize this graph.

        Verifies every referenced physical table is present and that each
        join's master/detail columns exist in the corresponding table.  Only
        ``column in table`` is asked of each entry, so the fact entry may be
        a plain list of column names (a streamed CSV's header).
        """
        if self.fact not in tables:
            raise SchemaError(f"fact table {self.fact!r} missing from tables")
        for join in self._order:
            detail_name = join.detail.table
            if detail_name not in tables:
                raise SchemaError(
                    f"join {join}: detail table {detail_name!r} missing from tables"
                )
            master_name = self.table_for(join.master.table)
            master_table = tables[master_name]
            detail_table = tables[detail_name]
            if join.master.column not in master_table:
                raise SchemaError(
                    f"join {join}: master table {master_name!r} has no "
                    f"column {join.master.column!r}"
                )
            if join.detail.column not in detail_table:
                raise SchemaError(
                    f"join {join}: detail table {detail_name!r} has no "
                    f"column {join.detail.column!r}"
                )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        joins = "; ".join(str(j) for j in self._order)
        return f"SchemaGraph(fact={self.fact!r}, joins=[{joins}])"
