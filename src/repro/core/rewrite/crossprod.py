"""Rewrite rules for the cross-product (Gram matrix) operator.

Paper reference: Section 3.3.5 (naive Algorithm 1 and efficient Algorithm 2),
Section 3.5 (star schema block decomposition), Appendix A (transposed input,
i.e. the Gramian ``T T^T``) and Appendices D/E (M:N joins).

``crossprod(T) = T^T T`` is the workhorse of linear regression via normal
equations, covariance and PCA.  The efficient rewrite exploits two facts:

1. ``crossprod(S)`` computes only half of ``S^T S`` (symmetry).
2. ``K^T K`` is diagonal with ``diag(colSums(K))`` on the diagonal, so
   ``R^T (K^T K) R = crossprod(diag(colSums(K))^{1/2} R)`` -- no sparse
   transpose product and another halving of the arithmetic.

With ``entity=None`` the entity blocks drop out: :func:`crossprod_star_naive`
and :func:`crossprod_star_efficient` are then the M:N Algorithms 9 and 10,
and :func:`gram_transposed_star` is ``sum_i I_i crossprod(R_i^T) I_i^T``.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.segments import attribute_offsets
from repro.la import kernels
from repro.la.ops import crossprod, matmul, transpose
from repro.la.types import MatrixLike, to_dense


def crossprod_star_naive(entity: Optional[MatrixLike], indicators: Sequence[MatrixLike],
                         attributes: Sequence[MatrixLike]) -> np.ndarray:
    """Algorithm 1: the straightforward factorized cross-product.

    Uses ``S^T S`` and ``R^T (K^T K) R`` directly; kept as the baseline for
    the ablation benchmark against :func:`crossprod_star_efficient`.
    """
    entity_width = entity.shape[1] if entity is not None else 0
    widths = [r.shape[1] for r in attributes]
    total = entity_width + sum(widths)
    dtype = kernels.result_dtype(entity, *attributes)
    out = np.zeros((total, total), dtype=dtype)
    offsets = attribute_offsets(entity_width, widths)

    if entity_width:
        out[:entity_width, :entity_width] = to_dense(matmul(transpose(entity), entity))
    for i, (indicator, attribute) in enumerate(zip(indicators, attributes)):
        oi, wi = offsets[i], widths[i]
        if entity_width:
            # P = R^T (K^T S); lower-left block and its transpose.
            partial = to_dense(matmul(transpose(attribute), matmul(transpose(indicator), entity)))
            out[oi:oi + wi, :entity_width] = partial
            out[:entity_width, oi:oi + wi] = partial.T
        gram_indicator = matmul(transpose(indicator), indicator)
        out[oi:oi + wi, oi:oi + wi] = to_dense(
            matmul(transpose(attribute), matmul(gram_indicator, attribute))
        )
        for j in range(i + 1, len(attributes)):
            oj, wj = offsets[j], widths[j]
            block = kernels.cross_block(indicator, indicators[j],
                                        attribute, attributes[j], dtype)
            out[oi:oi + wi, oj:oj + wj] = block
            out[oj:oj + wj, oi:oi + wi] = block.T
    return out


def crossprod_star_efficient(entity: Optional[MatrixLike], indicators: Sequence[MatrixLike],
                             attributes: Sequence[MatrixLike]) -> np.ndarray:
    """Algorithm 2: the optimized factorized cross-product.

    Diagonal attribute blocks use
    ``crossprod(diag(colSums(K_i))^{1/2} R_i)``; the entity block uses
    ``crossprod(S)``; off-diagonal blocks are ``(S^T K_i) R_i`` and
    ``R_i^T (K_i^T K_j) R_j`` exactly as in Section 3.5.
    """
    entity_width = entity.shape[1] if entity is not None else 0
    widths = [r.shape[1] for r in attributes]
    total = entity_width + sum(widths)
    dtype = kernels.result_dtype(entity, *attributes)
    out = np.zeros((total, total), dtype=dtype)
    offsets = attribute_offsets(entity_width, widths)

    if entity_width:
        out[:entity_width, :entity_width] = to_dense(crossprod(entity))
    for i, (indicator, attribute) in enumerate(zip(indicators, attributes)):
        oi, wi = offsets[i], widths[i]
        if entity_width:
            # (S^T K_i) R_i: small intermediate of size dS x nRi.
            partial = kernels.entity_cross_block(entity, indicator, attribute, dtype)
            out[:entity_width, oi:oi + wi] = partial
            out[oi:oi + wi, :entity_width] = partial.T
        out[oi:oi + wi, oi:oi + wi] = kernels.scatter_crossprod(indicator,
                                                                attribute, dtype)
        for j in range(i + 1, len(attributes)):
            oj, wj = offsets[j], widths[j]
            block = kernels.cross_block(indicator, indicators[j],
                                        attribute, attributes[j], dtype)
            out[oi:oi + wi, oj:oj + wj] = block
            out[oj:oj + wj, oi:oi + wi] = block.T
    return out


def gram_transposed_star(entity: Optional[MatrixLike], indicators: Sequence[MatrixLike],
                         attributes: Sequence[MatrixLike]) -> np.ndarray:
    """``crossprod(T^T) = T T^T`` (the Gramian), an ``n_S x n_S`` regular matrix.

    Appendix A rule, generalized to the star schema::

        crossprod(T^T) -> crossprod(S^T) + sum_i K_i crossprod(R_i^T) K_i^T
    """
    n_rows = indicators[0].shape[0] if indicators else entity.shape[0]
    out = np.zeros((n_rows, n_rows), dtype=kernels.result_dtype(entity, *attributes))
    if entity is not None and entity.shape[1] > 0:
        out += to_dense(matmul(entity, transpose(entity)))
    for indicator, attribute in zip(indicators, attributes):
        out = kernels.gather_gram(out, indicator, attribute)
    return out
