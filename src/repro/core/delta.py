"""Change capture for incremental maintenance: row-level attribute deltas.

A :class:`MatrixDelta` describes one batch of row-level changes to an
attribute (or M:N component) table's feature matrix ``R_k``: which rows
changed, their values before and after, and the monotonic version the change
produces.  It is the currency of the delta/IVM layer -- captured by
:meth:`repro.relational.table.Table.upsert_rows` (or built directly from two
matrix states), consumed by

* :meth:`NormalizedMatrix.apply_delta` -- producing the successor matrix;
* :func:`patch_term` -- refreshing a join-invariant term (``crossprod(T)``,
  ``T^T Y``, an aggregate, ...) computed on the predecessor, by the rank-|Δ|
  rules of :mod:`repro.core.rewrite.delta`;
* :func:`held_cofactor_terms` -- the co-factor terms a matrix holds for linear
  regression, patched along one ``apply_delta`` link instead of recomputed;
* :meth:`repro.serve.scorer.FactorizedScorer.apply_delta` -- patching only
  the changed rows of the table's partial-score matrix before the atomic
  snapshot swap.

Deletes are **tombstones**: a delete is an upsert to all-zero feature values,
which keeps row numbering (and therefore every indicator matrix and cached
position index) valid.  Physical deletes renumber rows and are inherently
non-patchable -- consumers must rebuild; see ``docs/incremental.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from repro.core.rewrite import delta as delta_rules
from repro.core.segments import attribute_offsets
from repro.exceptions import DeltaError
from repro.la.types import MatrixLike, ensure_2d, is_sparse, to_dense


@dataclass(frozen=True)
class MatrixDelta:
    """One batch of row-level changes to a single attribute matrix.

    Attributes
    ----------
    rows:
        Sorted, unique row indices into ``R_k`` (``(b,)`` int64).
    old / new:
        The ``(b, d_k)`` dense row values before and after the change.
        Inserted rows (``rows >= num_rows``) have all-zero ``old``; tombstone
        deletes have all-zero ``new``.
    num_rows:
        Row count of the table the delta applies to.  Indices at or beyond
        it are *appends* (only the serving layer, whose partials may grow,
        accepts those; in-place matrix patching requires ``rows < num_rows``).
    version:
        The monotonic version of the table **after** this delta.
    """

    rows: np.ndarray
    old: np.ndarray
    new: np.ndarray
    num_rows: int
    version: int = 1

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=np.int64).ravel()
        old = np.asarray(to_dense(ensure_2d(self.old)), dtype=np.float64)
        new = np.asarray(to_dense(ensure_2d(self.new)), dtype=np.float64)
        if old.shape != new.shape:
            raise DeltaError(f"delta old {old.shape} and new {new.shape} shapes differ")
        if rows.shape[0] != new.shape[0]:
            raise DeltaError(
                f"delta has {rows.shape[0]} row indices but {new.shape[0]} value rows"
            )
        if rows.size:
            if rows.min() < 0:
                raise DeltaError("delta row indices must be non-negative")
            if np.any(np.diff(rows) <= 0):
                order = np.argsort(rows, kind="stable")
                rows = rows[order]
                old, new = old[order], new[order]
                if np.any(np.diff(rows) == 0):
                    raise DeltaError("delta row indices must be unique")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "old", old)
        object.__setattr__(self, "new", new)
        object.__setattr__(self, "num_rows", int(self.num_rows))

    # -- derived quantities ---------------------------------------------------

    @property
    def num_changed(self) -> int:
        """Number of changed rows ``b``."""
        return int(self.rows.shape[0])

    @property
    def width(self) -> int:
        """Feature count ``d_k`` of the target table."""
        return int(self.new.shape[1])

    @property
    def values(self) -> np.ndarray:
        """The additive change ``Δ = new - old``."""
        return self.new - self.old

    @property
    def delta_fraction(self) -> float:
        """``b / |R_k|`` -- the knob the patch-vs-recompute cost rule reads."""
        if self.num_rows <= 0:
            return 1.0
        return self.num_changed / self.num_rows

    @property
    def grows(self) -> bool:
        """Whether any index appends a row beyond ``num_rows``."""
        return bool(self.rows.size) and int(self.rows.max()) >= self.num_rows

    @property
    def num_rows_after(self) -> int:
        """Row count after applying (``num_rows`` unless the delta appends)."""
        if not self.rows.size:
            return self.num_rows
        return max(self.num_rows, int(self.rows.max()) + 1)

    # -- construction helpers -------------------------------------------------

    @classmethod
    def upsert(cls, rows, new_values, base_matrix: MatrixLike,
               version: int = 1) -> "MatrixDelta":
        """Capture an upsert of *new_values* at *rows* against *base_matrix*."""
        rows = np.asarray(rows, dtype=np.int64).ravel()
        new_values = np.asarray(to_dense(ensure_2d(new_values)), dtype=np.float64)
        base = ensure_2d(base_matrix)
        n_rows = base.shape[0]
        old = np.zeros_like(new_values)
        inside = rows < n_rows
        if np.any(inside):
            existing = base[rows[inside], :]
            old[inside] = np.asarray(to_dense(existing), dtype=np.float64)
        return cls(rows=rows, old=old, new=new_values, num_rows=n_rows, version=version)

    @classmethod
    def tombstone(cls, rows, base_matrix: MatrixLike, version: int = 1) -> "MatrixDelta":
        """Capture a delete-as-tombstone: the rows' features drop to zero."""
        rows = np.asarray(rows, dtype=np.int64).ravel()
        base = ensure_2d(base_matrix)
        old = np.asarray(to_dense(base[rows, :]), dtype=np.float64)
        return cls(rows=rows, old=old, new=np.zeros_like(old),
                   num_rows=base.shape[0], version=version)

    # -- validation against a concrete matrix ---------------------------------

    def check_against(self, attribute: MatrixLike, allow_growth: bool = False) -> None:
        """Verify this delta was captured against *attribute*'s current state.

        Guards the algebra: patching with a delta whose ``old`` values do not
        match the matrix silently corrupts every downstream term, so the
        mismatch is raised here as :class:`DeltaError` instead.
        """
        attribute = ensure_2d(attribute)
        if self.width != attribute.shape[1]:
            raise DeltaError(
                f"delta has {self.width} columns but the table has {attribute.shape[1]}"
            )
        if self.num_rows != attribute.shape[0]:
            raise DeltaError(
                f"delta was captured at {self.num_rows} rows but the table has "
                f"{attribute.shape[0]}"
            )
        if self.grows and not allow_growth:
            raise DeltaError(
                f"delta appends rows beyond {self.num_rows}; only the serving "
                "partials support growth (rebuild the normalized matrix instead)"
            )
        inside = self.rows[self.rows < self.num_rows]
        if inside.size:
            current = np.asarray(to_dense(attribute[inside, :]), dtype=np.float64)
            # rows are sorted, so in-range indices are a prefix of old.
            expected = self.old[: inside.size]
            if not np.allclose(current, expected, rtol=0.0, atol=0.0, equal_nan=True):
                raise DeltaError(
                    "delta 'old' values disagree with the matrix being patched; "
                    "the change was captured against a different version"
                )

    def apply_to(self, attribute: MatrixLike) -> MatrixLike:
        """The post-delta attribute matrix (dense stays dense, sparse sparse)."""
        self.check_against(attribute)
        if is_sparse(attribute):
            patched = attribute.tolil(copy=True)
            patched[self.rows, :] = self.new
            return patched.tocsr()
        dense = np.asarray(attribute)
        # Keep a floating attribute's dtype (float32 tables stay float32);
        # anything else widens to float64 like the delta values themselves.
        dtype = dense.dtype if np.issubdtype(dense.dtype, np.floating) else np.float64
        patched = np.array(dense, dtype=dtype)
        patched[self.rows, :] = self.new
        patched.setflags(write=False)
        return patched

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MatrixDelta(rows={self.num_changed}/{self.num_rows}, width={self.width}, "
            f"fraction={self.delta_fraction:.4f}, version={self.version})"
        )


# ---------------------------------------------------------------------------
# Term patching: one rule per join-invariant Table-1 term
# ---------------------------------------------------------------------------

def patch_term(kind: str, value, matrix, table_index: int, delta: MatrixDelta,
               operand=None, routing: Optional[delta_rules.Routing] = None):
    """Return the post-delta value of one join-invariant term of ``T``.

    *kind* names the term -- ``"crossprod"`` (``T^T T``), ``"lmm"``
    (``T @ X``), ``"tlmm"`` (``T^T @ Y``), ``"rowsums"``, ``"colsums"`` or
    ``"total_sum"`` -- and *operand* holds its constant co-operand (``X`` /
    ``Y``) where it has one.  *value* is the term computed on the pre-delta
    matrix; *matrix* is the **successor** returned by ``apply_delta`` (its
    ``attributes`` are post-delta).  The patch is the rank-``|Δ|`` rule of
    :mod:`repro.core.rewrite.delta`, so a caller holding ``crossprod(T)`` and
    ``T^T Y`` refreshes them without another pass over the join -- as
    :func:`held_cofactor_terms` does for every co-factor fit.  Dense results
    come back as fresh arrays; *value* is never mutated.

    The post-delta rows are read from *matrix* rather than ``delta.new``:
    :meth:`MatrixDelta.apply_to` keeps a float32 table float32 and an
    integer sparse table integer, so the stored rows can round ``new``, and
    the patched term must describe the values the matrix holds (the next
    delta's ``old`` is the stored value, so the two never drift apart).

    *routing* is :func:`repro.core.rewrite.delta.route` of ``delta.rows``
    through the changed table's indicator, for a caller patching several
    terms with one delta; the rule computes it when omitted.
    """
    indicator = matrix.indicators[table_index]
    rows = delta.rows
    new = np.asarray(to_dense(matrix.attributes[table_index][rows, :]), dtype=np.float64)
    dvalues = new - delta.old
    widths = matrix.attribute_widths
    offset = attribute_offsets(matrix.entity_width, widths)[table_index]
    segment = slice(offset, offset + widths[table_index])

    if kind == "crossprod":
        return delta_rules.patch_crossprod(
            value, matrix.entity, matrix.indicators, matrix.attributes,
            table_index, rows, delta.old, new, routing,
        )
    if kind == "lmm":
        x_block = ensure_2d(operand)[segment, :]
        return value + delta_rules.delta_lmm(indicator, rows, dvalues, x_block, routing)
    if kind == "tlmm":
        patched = np.array(to_dense(value), dtype=np.float64)
        patched[segment, :] += delta_rules.delta_tlmm_block(
            indicator, rows, dvalues, operand, routing
        )
        return patched
    if kind == "rowsums":
        return value + delta_rules.delta_rowsums(indicator, rows, dvalues, routing)
    if kind == "colsums":
        patched = np.array(to_dense(value), dtype=np.float64)
        patched[:, segment] += delta_rules.delta_colsums_block(indicator, rows, dvalues,
                                                               routing)
        return patched
    if kind == "total_sum":
        return float(value) + delta_rules.delta_total_sum(indicator, rows, dvalues, routing)
    raise DeltaError(f"no delta patch rule for term kind {kind!r}")


# ---------------------------------------------------------------------------
# Held co-factor terms: (crossprod(T), T^T y) kept on a matrix, patched on refit
# ---------------------------------------------------------------------------

class TermSlot:
    """The co-factor terms held for one matrix: ``(target key, crossprod(T), T^T y)``.

    ``held`` is ``None`` or that tuple, replaced whole so a concurrent reader
    never sees a half-written slot.  A matrix keeps one slot; its successor's
    lineage keeps a reference to the slot, never to the matrix.
    """

    __slots__ = ("held", "__weakref__")

    def __init__(self):
        self.held: Optional[tuple] = None


def term_slot(matrix) -> TermSlot:
    """*matrix*'s term slot, created empty on first use."""
    slot = matrix._terms
    if slot is None:
        slot = matrix._terms = TermSlot()
    return slot


def term_owner(data):
    """The untransposed normalized matrix whose terms *data* shares, else ``None``.

    A normalized matrix owns its own terms, and a streamed view shares its
    source's unless it is transposed or carries pending scalar ops.  Any
    other operand, a sharded view included, computes its terms afresh.
    """
    from repro.core.normalized_matrix import NormalizedMatrix
    from repro.core.partitioned import Partitioned

    if isinstance(data, Partitioned):
        if data.pieces is not None or data.transposed or data.ops:
            return None
        data = data.source
    if isinstance(data, NormalizedMatrix) and not data.transposed:
        return data
    return None


def _same_target(key: np.ndarray, contents: np.ndarray) -> bool:
    """Whether *contents* equals the held *key* byte for byte (so NaNs match
    and ``-0.0`` differs from ``0.0``)."""
    return key.shape == contents.shape and np.array_equal(key.view(np.int64),
                                                          contents.view(np.int64))


def held_cofactor_terms(matrix, y: np.ndarray,
                        compute: Callable[[], Tuple[np.ndarray, np.ndarray]]):
    """``(crossprod(T), T^T y)`` of *matrix*, held on it for later fits.

    Terms already held for *y*'s contents come back as they are.  Otherwise,
    on the first lookup after :meth:`NormalizedMatrix.apply_delta`, the
    predecessor's held terms are patched by :func:`patch_term` along the
    recorded ``(slot, table_index, delta)`` link, which is then dropped; both
    patches share one routing of the changed rows.  A missing link (a built
    or rebuilt matrix), a predecessor that held no terms (two deltas without
    a fit between them) or held them for another target falls back to
    ``compute()``.  The held arrays are read-only.

    The key is a read-only float64 copy of *y* -- its contents, not its
    ``id`` -- compared byte for byte, so a target mutated in place misses.
    A patched successor shares its predecessor's key array.
    """
    contents = np.ascontiguousarray(y, dtype=np.float64)
    slot = term_slot(matrix)
    held = slot.held
    if held is not None and _same_target(held[0], contents):
        return held[1], held[2]
    lineage, matrix._lineage = matrix._lineage, None
    previous = lineage[0].held if lineage is not None else None
    if previous is not None and _same_target(previous[0], contents):
        key = previous[0]
        _, table_index, delta = lineage
        routing = delta_rules.route(matrix.indicators[table_index], delta.rows)
        gram = patch_term("crossprod", previous[1], matrix, table_index, delta,
                          routing=routing)
        xty = patch_term("tlmm", previous[2], matrix, table_index, delta, y,
                         routing=routing)
    else:
        key = contents.copy()
        key.setflags(write=False)
        gram, xty = compute()
    gram.setflags(write=False)
    xty.setflags(write=False)
    slot.held = (key, gram, xty)
    return gram, xty
