"""Rewrite rules for matrix multiplication: LMM, RMM and DMM.

Paper reference: Sections 3.3.3 (LMM), 3.3.4 (RMM), 3.5 (star schema),
Appendix A (transposed inputs), Appendix C (double matrix multiplication) and
Appendices D/E (M:N joins).

Left multiplication ``T X`` (``X`` is ``d x m``) splits ``X`` row-wise by the
column blocks of ``T`` and pushes each block product to the base matrix before
re-assembling through the indicators::

    T X -> S X[1:dS, ] + sum_i Ki (Ri X[d'_{i-1}+1 : d'_i, ])

The multiplication order inside the sum is crucial: ``Ki (Ri X)`` avoids
computational redundancy, whereas ``(Ki Ri) X`` would effectively materialize
part of the join.  Both orders are implemented so the ablation benchmark can
measure the difference (:func:`lmm_star_materialized_order`).

Right multiplication ``X T`` (``X`` is ``m x n_S``) pushes the product into
each base matrix and concatenates column-wise::

    X T -> [X S, (X K1) R1, ..., (X Kq) Rq]

With ``entity=None`` the ``S`` terms drop out and :func:`lmm_star` /
:func:`rmm_star` are the M:N rules for ``T = [I1 R1, ..., Iq Rq]``.

An LMM over more than :data:`TILE_ROWS` rows runs one row tile at a time
(:func:`lmm_tiles`): each small product ``Ri X_i`` is computed once per call,
then every tile is ``S[t] X_S`` written into a tile-sized buffer plus each
table's gather of its codes ``[t]``, so the working set stays cache-sized and
no join-sized temporary is built besides the result.  A caller that consumes
each tile in place (K-Means' nearest centroid, GNMF's ``W`` update) never
holds an ``n x m`` array at all.  A sparse entity or ``X``, a single tile,
or a one-column ``X`` (in :func:`lmm_star`) runs the whole product at once.

Double matrix multiplication (both operands normalized) is rare in ML but is
supported for the single-join case to match Appendix C.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import RewriteError, ShapeError
from repro.la import kernels
from repro.la.indicator import Indicator
from repro.la.ops import matmul, transpose
from repro.la.types import MatrixLike, ensure_2d, to_dense


# ---------------------------------------------------------------------------
# Star-schema PK-FK
# ---------------------------------------------------------------------------

#: Rows per LMM tile.  At the widths the estimators use (``m`` up to a few
#: dozen) a tile and its gather buffers stay within L2, so ``S[t] X`` and the
#: per-table gathers reuse them in cache: ``S @ X`` on 200k x 20 rows at
#: ``m = 5`` ran in 1.8 ms tiled against 5.4 ms whole (medians of 30 runs,
#: one BLAS thread, 2-vCPU Xeon).
TILE_ROWS = 8192


def _checked_lmm(entity: Optional[MatrixLike], attributes: Sequence[MatrixLike],
                 x: MatrixLike) -> MatrixLike:
    x = ensure_2d(x)
    entity_width = entity.shape[1] if entity is not None else 0
    total_width = entity_width + sum(r.shape[1] for r in attributes)
    if x.shape[0] != total_width:
        raise ShapeError(f"LMM: X has {x.shape[0]} rows but T has {total_width} columns")
    return x


def _tiled(entity: Optional[MatrixLike], x: MatrixLike, n_rows: int) -> bool:
    """Whether an LMM runs row tile by row tile (dense operands, several tiles)."""
    return (n_rows > TILE_ROWS and isinstance(x, np.ndarray)
            and (entity is None or isinstance(entity, np.ndarray)))


def _lmm_whole(entity: Optional[MatrixLike], indicators: Sequence[MatrixLike],
               attributes: Sequence[MatrixLike], x: MatrixLike) -> np.ndarray:
    """``T @ X`` in one pass: the entity product plus one gather per table."""
    entity_width = entity.shape[1] if entity is not None else 0
    n_rows = indicators[0].shape[0] if indicators else entity.shape[0]
    # The accumulator carries the operand result dtype (indicators excluded:
    # their stored float64 ones are structural and must not upcast float32).
    dtype = kernels.result_dtype(entity, *attributes, x)
    offset = 0
    if entity_width:
        # The fresh entity product S X is the accumulator the table terms add into.
        result = np.asarray(to_dense(matmul(entity, x[0:entity_width, :])), dtype=dtype)
        offset = entity_width
    else:
        result = np.zeros((n_rows, x.shape[1]), dtype=dtype)
    for indicator, attribute in zip(indicators, attributes):
        width = attribute.shape[1]
        block = x[offset:offset + width, :]
        # K (R X): compute the small product first, then scatter through K.
        result = kernels.gather_add(result, indicator, attribute, block)
        offset += width
    return result


def lmm_tiles(entity: Optional[MatrixLike], indicators: Sequence[MatrixLike],
              attributes: Sequence[MatrixLike], x: MatrixLike,
              out: Optional[np.ndarray] = None) -> Iterator[Tuple[int, int, np.ndarray]]:
    """Yield ``(start, stop, tile)``: rows ``start:stop`` of ``T @ X``, in order.

    The tiles are views of *out* when given (filled as they are yielded),
    else of one tile-sized buffer that the next tile overwrites, so a
    consumer must finish with a tile before asking for the next.  A sparse
    entity or ``X``, or at most :data:`TILE_ROWS` rows, yields the whole
    product as one fresh tile.
    """
    x = _checked_lmm(entity, attributes, x)
    n_rows = indicators[0].shape[0] if indicators else entity.shape[0]
    if not _tiled(entity, x, n_rows):
        whole = _lmm_whole(entity, indicators, attributes, x)
        if out is not None:
            out[...] = whole
        yield 0, n_rows, whole
        return
    dtype = kernels.result_dtype(entity, *attributes, x)
    entity_width = entity.shape[1] if entity is not None else 0
    x_entity = x[:entity_width]
    smalls, offset = [], entity_width
    for attribute in attributes:
        width = attribute.shape[1]
        # Each R_i X_i once per call; every tile gathers its rows by code.
        product = to_dense(matmul(attribute, x[offset:offset + width, :]))
        smalls.append(np.ascontiguousarray(product))
        offset += width
    buffer = None if out is not None else np.empty((TILE_ROWS, x.shape[1]), dtype=dtype)
    for start in range(0, n_rows, TILE_ROWS):
        stop = min(start + TILE_ROWS, n_rows)
        view = out[start:stop] if out is not None else buffer[:stop - start]
        if entity_width:
            np.matmul(entity[start:stop], x_entity, out=view)
        else:
            view.fill(0)
        tile = view
        for indicator, small in zip(indicators, smalls):
            tile = kernels.gather_add(
                tile, Indicator._wrap(indicator._codes[start:stop], indicator.shape[1]),
                small, None)
        if tile is not view and out is not None:
            view[...] = tile
        yield start, stop, tile


def lmm_star(entity: Optional[MatrixLike], indicators: Sequence[MatrixLike],
             attributes: Sequence[MatrixLike], x: MatrixLike) -> np.ndarray:
    """Factorized left multiplication ``T @ X`` for a star-schema normalized matrix."""
    x = _checked_lmm(entity, attributes, x)
    n_rows = indicators[0].shape[0] if indicators else entity.shape[0]
    # A one-column product (a GD step's T w) runs whole: its per-table
    # temporaries are one column, and per-tile dispatch made it slower
    # (2.0 against 1.7 ms on 100k rows; from two columns on, tiles win).
    if x.shape[1] == 1 or not _tiled(entity, x, n_rows):
        return _lmm_whole(entity, indicators, attributes, x)
    result = np.empty((n_rows, x.shape[1]), dtype=kernels.result_dtype(entity, *attributes, x))
    for _ in lmm_tiles(entity, indicators, attributes, x, out=result):
        pass
    return result


def lmm_star_materialized_order(entity: Optional[MatrixLike], indicators: Sequence[MatrixLike],
                                attributes: Sequence[MatrixLike], x: MatrixLike) -> np.ndarray:
    """The *wrong* multiplication order ``(K R) X``, kept for the ablation study.

    Logically equivalent to :func:`lmm_star` but first expands ``K R`` -- i.e.
    materializes part of the join output -- before multiplying by ``X``.
    """
    x = ensure_2d(x)
    entity_width = entity.shape[1] if entity is not None else 0
    attribute_widths = [r.shape[1] for r in attributes]
    n_rows = indicators[0].shape[0] if indicators else entity.shape[0]
    result = np.zeros((n_rows, x.shape[1]))
    offset = 0
    if entity_width:
        result = result + to_dense(matmul(entity, x[0:entity_width, :]))
        offset = entity_width
    for indicator, attribute, width in zip(indicators, attributes, attribute_widths):
        block = x[offset:offset + width, :]
        expanded = matmul(indicator, attribute)
        result = result + to_dense(matmul(expanded, block))
        offset += width
    return result


def rmm_star(entity: Optional[MatrixLike], indicators: Sequence[MatrixLike],
             attributes: Sequence[MatrixLike], x: MatrixLike) -> np.ndarray:
    """Factorized right multiplication ``X @ T`` for a star-schema normalized matrix."""
    x = ensure_2d(x)
    n_rows = indicators[0].shape[0] if indicators else entity.shape[0]
    if x.shape[1] != n_rows:
        raise ShapeError(f"RMM: X has {x.shape[1]} columns but T has {n_rows} rows")
    dtype = kernels.result_dtype(entity, *attributes, x)
    # X is often a transposed view (T^T W runs as (W^T T)^T); the entity
    # product and the CSR scatter read it in place, without a copy.
    blocks: List[MatrixLike] = []
    if entity is not None and entity.shape[1] > 0:
        blocks.append(np.asarray(to_dense(matmul(x, entity)), dtype=dtype))
    for indicator, attribute in zip(indicators, attributes):
        # (X K) R: the intermediate X K is only m x nR.
        blocks.append(kernels.scatter_right(x, indicator, attribute, dtype))
    return np.hstack(blocks) if blocks else np.zeros((x.shape[0], 0), dtype=dtype)


# ---------------------------------------------------------------------------
# Double matrix multiplication (Appendix C), single-join case
# ---------------------------------------------------------------------------

def dmm_single(a_entity: MatrixLike, a_indicator: MatrixLike, a_attribute: MatrixLike,
               b_entity: MatrixLike, b_indicator: MatrixLike, b_attribute: MatrixLike
               ) -> np.ndarray:
    """Factorized product ``A @ B`` of two single-join normalized matrices.

    ``A = [S_A, K_A R_A]`` is ``n_A x d_A`` and ``B = [S_B, K_B R_B]`` is
    ``n_B x d_B`` with ``d_A == n_B``.  Appendix C splits ``S_B`` and ``K_B``
    row-wise at ``d_{S_A}`` and pushes the products down::

        A B -> [S_A S_B1 + K_A (R_A S_B2),
                (S_A K_B1) R_B + K_A ((R_A K_B2) R_B)]
    """
    d_sa = a_entity.shape[1]
    d_a = d_sa + a_attribute.shape[1]
    n_b = b_entity.shape[0] if b_entity is not None else b_indicator.shape[0]
    if d_a != n_b:
        raise ShapeError(f"DMM: A has {d_a} columns but B has {n_b} rows")
    if d_sa > n_b:
        raise RewriteError("DMM: entity width of A exceeds the row count of B")
    s_b1 = b_entity[:d_sa, :]
    s_b2 = b_entity[d_sa:, :]
    k_b1 = b_indicator[:d_sa, :]
    k_b2 = b_indicator[d_sa:, :]
    left = to_dense(matmul(a_entity, s_b1)) + to_dense(
        matmul(a_indicator, matmul(a_attribute, s_b2))
    )
    right = to_dense(matmul(matmul(a_entity, k_b1), b_attribute)) + to_dense(
        matmul(a_indicator, matmul(matmul(a_attribute, k_b2), b_attribute))
    )
    return np.hstack([left, right])


def dmm_gram_pair(a_entity: MatrixLike, a_indicator: MatrixLike, a_attribute: MatrixLike,
                  b_entity: MatrixLike, b_indicator: MatrixLike, b_attribute: MatrixLike
                  ) -> np.ndarray:
    """Factorized ``A^T @ B`` for two single-join normalized matrices (Appendix C).

    Both operands must have the same number of rows (``n_SA == n_SB``)::

        A^T B -> [[S_A^T S_B,        (S_A^T K_B) R_B       ],
                  [R_A^T (K_A^T S_B), R_A^T (K_A^T K_B) R_B]]

    The fourth tile computes ``P = K_A^T K_B`` first; Theorems C.1/C.2 bound
    ``nnz(P)`` between ``max(n_RA, n_RB)`` and ``n_SA``, so the intermediate
    stays sparse-friendly.
    """
    if a_entity.shape[0] != b_entity.shape[0]:
        raise ShapeError("transposed DMM: operands must have the same number of rows")
    upper_left = to_dense(matmul(transpose(a_entity), b_entity))
    upper_right = to_dense(matmul(matmul(transpose(a_entity), b_indicator), b_attribute))
    lower_left = to_dense(matmul(transpose(a_attribute), matmul(transpose(a_indicator), b_entity)))
    crossing = matmul(transpose(a_indicator), b_indicator)
    lower_right = to_dense(matmul(matmul(transpose(a_attribute), crossing), b_attribute))
    top = np.hstack([upper_left, upper_right])
    bottom = np.hstack([lower_left, lower_right])
    return np.vstack([top, bottom])


def dmm_outer_pair(a_entity: MatrixLike, a_indicator: MatrixLike, a_attribute: MatrixLike,
                   b_entity: MatrixLike, b_indicator: MatrixLike, b_attribute: MatrixLike
                   ) -> np.ndarray:
    """Factorized ``A @ B^T`` for two single-join normalized matrices (Appendix C).

    Implements the three cases based on the relative entity widths
    ``d_SA`` vs ``d_SB``; the output is a regular ``n_A x n_B`` matrix.
    """
    d_sa, d_sb = a_entity.shape[1], b_entity.shape[1]
    d_a = d_sa + a_attribute.shape[1]
    d_b = d_sb + b_attribute.shape[1]
    if d_a != d_b:
        raise ShapeError(f"A B^T requires equal total widths, got {d_a} and {d_b}")
    if d_sa == d_sb:
        part1 = to_dense(matmul(a_entity, transpose(b_entity)))
        inner = matmul(a_attribute, transpose(b_attribute))
        part2 = to_dense(matmul(matmul(a_indicator, inner), transpose(b_indicator)))
        return part1 + part2
    if d_sa < d_sb:
        s_b1 = b_entity[:, :d_sa]
        s_b2 = b_entity[:, d_sa:]
        split = d_sb - d_sa
        r_a1 = a_attribute[:, :split]
        r_a2 = a_attribute[:, split:]
        part1 = to_dense(matmul(a_entity, transpose(s_b1)))
        part2 = to_dense(matmul(a_indicator, matmul(r_a1, transpose(s_b2))))
        inner = matmul(r_a2, transpose(b_attribute))
        part3 = to_dense(matmul(matmul(a_indicator, inner), transpose(b_indicator)))
        return part1 + part2 + part3
    # d_sa > d_sb: recast as the transposed case-(2) problem.
    return dmm_outer_pair(b_entity, b_indicator, b_attribute,
                          a_entity, a_indicator, a_attribute).T
