"""Materialization of normalized matrices.

Materialization produces the single denormalized matrix
``T = [S, K1 R1, ..., Kq Rq]`` (star schema; without ``S`` it is the M:N
form ``T = [I1 R1, ..., Iq Rq]``).  The library uses it in three places:

* the *materialized baseline* ("M" in the paper's plots) that every benchmark
  compares against,
* the fallback path for non-factorizable operators (element-wise matrix
  arithmetic with an arbitrary regular matrix, Section 3.3.7), and
* the fallback inside ``ginv`` when the Gram matrix is rank-deficient.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.la.ops import hstack
from repro.la.types import MatrixLike, ensure_2d, is_sparse


def _join_block(indicator: MatrixLike, attribute: MatrixLike) -> MatrixLike:
    """``K R`` as a row gather: each row of ``K`` holds a single ``1``.

    Gathering ``R`` by the indicator's codes never multiplies.  The result
    has the product's dtype, and each entry equals the product's (``1.0 * r``
    is ``r``, except that a stored ``-0.0`` keeps its sign).
    """
    attribute = ensure_2d(attribute)
    codes = indicator._codes
    dtype = np.result_type(indicator.dtype, attribute.dtype)
    if is_sparse(attribute):
        return attribute.tocsr()[codes].astype(dtype, copy=False)
    return attribute.take(codes, axis=0).astype(dtype, copy=False)


def materialize_star(entity: Optional[MatrixLike], indicators: Sequence[MatrixLike],
                     attributes: Sequence[MatrixLike]) -> MatrixLike:
    """Materialize ``T = [S, K1 R1, ..., Kq Rq]`` (``entity=None``: the M:N form)."""
    blocks: List[MatrixLike] = []
    if entity is not None and entity.shape[1] > 0:
        blocks.append(entity)
    for indicator, attribute in zip(indicators, attributes):
        blocks.append(_join_block(indicator, attribute))
    return hstack(blocks)


def materialize(normalized) -> MatrixLike:
    """Materialize any normalized matrix (dispatches on the object's own method)."""
    return normalized.materialize()
