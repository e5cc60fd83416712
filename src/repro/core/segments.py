"""Column-segment metadata of normalized matrices.

The (virtual) join output ``T`` of a normalized matrix is a horizontal
concatenation of per-table blocks -- ``[S, K1 R1, ..., Kq Rq]``, or
``[I1 R1, ..., Iq Rq]`` for the entity-less M:N form.  The rewrite rules
slice their operands by accumulating widths on the fly; this module makes
the per-table column spans a first-class, inspectable property:

* :class:`ColumnSegment` -- one named half-open column span ``[start, stop)``
  of the logical ``T``, tied back to the base table it comes from.
* ``NormalizedMatrix.column_segments()`` returns the ordered segment list;
  ``n_features_per_table`` is the matching name -> width mapping.
* :func:`schema_fingerprint` -- a stable digest of the segment structure,
  used by the serving subsystem (:mod:`repro.serve`) to bind exported model
  weights to the schema they were trained on and reject mismatches.

The fingerprint deliberately covers only the *column* structure (matrix kind,
segment names and widths).  Attribute-table **row counts are excluded** so
that serving-time updates to an attribute table (new products, refreshed
features -- the HTAP freshness story) do not invalidate a model whose weight
vector never depended on them.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence


@dataclass(frozen=True)
class ColumnSegment:
    """One per-table column span ``[start, stop)`` of the logical matrix ``T``.

    Attributes
    ----------
    name:
        Stable block name: ``"entity"`` for the star-schema entity block,
        ``"table_i"`` for the i-th attribute table (an M:N component table
        is an attribute table).
    start, stop:
        Half-open column interval of the block inside ``T``.
    table_index:
        Index into the matrix's ``attributes`` list, or ``None`` for the
        entity block (which has no indicator and no attribute table).
    """

    name: str
    start: int
    stop: int
    table_index: Optional[int]

    @property
    def width(self) -> int:
        """Number of columns in the segment."""
        return self.stop - self.start

    @property
    def is_entity(self) -> bool:
        """Whether this is the star-schema entity block."""
        return self.table_index is None

    def slice(self) -> slice:
        """The segment as a Python slice over the columns of ``T`` (or rows of ``w``)."""
        return slice(self.start, self.stop)


def build_segments(entity_width: Optional[int],
                   attribute_widths: Sequence[int]) -> List[ColumnSegment]:
    """Assemble the ordered segment list from block widths.

    ``entity_width=None`` means "no entity block at all" (no entity matrix,
    as in the M:N form);
    ``entity_width=0`` keeps a zero-width entity segment so the block
    structure of a ``d_S = 0`` star schema stays visible.
    """
    segments: List[ColumnSegment] = []
    cursor = 0
    if entity_width is not None:
        segments.append(ColumnSegment("entity", 0, entity_width, None))
        cursor = entity_width
    for i, width in enumerate(attribute_widths):
        segments.append(ColumnSegment(f"table_{i}", cursor, cursor + width, i))
        cursor += width
    return segments


def attribute_offsets(entity_width: int, attribute_widths: Sequence[int]) -> List[int]:
    """Column offset inside ``T`` of each attribute block, after *entity_width* entity columns."""
    offsets = []
    start = entity_width
    for width in attribute_widths:
        offsets.append(start)
        start += width
    return offsets


def segment_widths(segments: Sequence[ColumnSegment]) -> Dict[str, int]:
    """Name -> width mapping of a segment list (the ``n_features_per_table`` view)."""
    return {segment.name: segment.width for segment in segments}


def schema_fingerprint(matrix) -> str:
    """Stable hex digest of a normalized matrix's column-segment structure.

    Covers the matrix kind and the ordered ``(name, width)`` pairs -- exactly
    the information needed to slice a trained weight vector correctly.  Row
    counts, base-matrix contents and storage formats are excluded on purpose
    (see the module docstring).
    """
    segments = matrix.column_segments()
    payload = {
        "kind": type(matrix).__name__,
        "segments": [[segment.name, segment.width] for segment in segments],
    }
    digest = hashlib.sha256(json.dumps(payload, sort_keys=True).encode("utf-8"))
    return digest.hexdigest()
