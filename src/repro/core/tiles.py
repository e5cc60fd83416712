"""Row-local passes: the per-iteration ``n``-row steps of the estimators.

K-Means' nearest-centroid step and GNMF's ``W`` update need, for each row,
that row of an LMM ``T @ X`` and nothing from any other row.  They run as
one pass over cache-sized row tiles (:func:`lmm_row_tiles`) that consumes
each tile in place, inside every piece of a
:class:`~repro.core.partitioned.Partitioned` operand or once over an
unpartitioned one (:func:`map_row_pieces`).  No ``n x m`` intermediate is
built, and a sharded fit keeps the whole step in its workers.
"""

from __future__ import annotations

from typing import Callable, Iterator, Tuple

import numpy as np

from repro.core.normalized_matrix import NormalizedMatrix
from repro.core.partitioned import Partitioned
from repro.core.rewrite import aggregation, multiplication
from repro.core.rewrite.multiplication import TILE_ROWS
from repro.la import generic
from repro.la.ops import row_norms
from repro.la.types import is_sparse


def lmm_row_tiles(data, x: np.ndarray) -> Iterator[Tuple[int, int, np.ndarray]]:
    """Yield ``(start, stop, tile)``: rows ``start:stop`` of ``data @ x``, in order.

    *data* is one in-memory operand: a normalized matrix runs the tiled LMM
    rewrite, a dense matrix one ``np.matmul`` per tile into a reused buffer;
    anything else yields the whole product as one tile.  A tile is
    overwritten by the next one.
    """
    if isinstance(data, NormalizedMatrix) and not data.transposed:
        # Through the module attribute, like every rewrite call, so tracers
        # that wrap the rewrite functions by name see it.
        yield from multiplication.lmm_tiles(data.entity, data.indicators,
                                            data.attributes, x)
    elif isinstance(data, np.ndarray) and data.shape[0] > TILE_ROWS:
        buffer = np.empty((TILE_ROWS, x.shape[1]), dtype=np.result_type(data, x))
        for start in range(0, data.shape[0], TILE_ROWS):
            stop = min(start + TILE_ROWS, data.shape[0])
            yield start, stop, np.matmul(data[start:stop], x, out=buffer[:stop - start])
    else:
        yield 0, data.shape[0], generic.to_dense_result(data @ x)


def map_row_pieces(data, task: Callable, *aligned: np.ndarray) -> None:
    """Run ``task(piece, *rows)`` over the row pieces of *data*, for its in-place writes.

    A partitioned operand runs *task* in each piece's worker
    (:meth:`~repro.core.partitioned.Partitioned.map_rows`); any other operand
    is one piece.  Each array in *aligned* reaches *task* as the piece's rows
    -- views, so the task writes its results straight into them.
    """
    if isinstance(data, Partitioned) and not data.transposed:
        data.map_rows(task, *aligned)
    else:
        task(data, *aligned)


def squared_row_norms(data) -> np.ndarray:
    """``rowSums(T * T)`` as a flat float64 ``(n,)`` vector, without squaring ``T``.

    A normalized matrix gathers each table's row norms by code
    (:func:`~repro.core.rewrite.aggregation.row_norms_star`), a partitioned
    one computes them piece by piece.
    """
    if isinstance(data, Partitioned) and not data.transposed:
        return np.concatenate(data.map_rows(squared_row_norms))
    if isinstance(data, NormalizedMatrix) and not data.transposed:
        return aggregation.row_norms_star(data.entity, data.indicators, data.attributes)
    if isinstance(data, np.ndarray) or is_sparse(data):
        return row_norms(data)
    return generic.to_dense_result(generic.rowsums(generic.square(data))).ravel()
