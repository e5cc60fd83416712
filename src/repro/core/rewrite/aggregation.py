"""Rewrite rules for the aggregation operators rowSums, colSums and sum.

Paper reference: Section 3.3.2 (single PK-FK join), Section 3.5 (star schema),
Appendix A (transposed inputs) and Appendices D/E (M:N joins).  These are the
LA counterparts of SQL aggregate push-down: the aggregation is computed on the
base matrices first and the small partial results are then combined through
the indicator matrices.

Star-schema rules (``T = [S, K1 R1, ..., Kq Rq]``)::

    rowSums(T) -> rowSums(S) + sum_i Ki rowSums(Ri)
    colSums(T) -> [colSums(S), colSums(K1) R1, ..., colSums(Kq) Rq]
    sum(T)     -> sum(S) + sum_i colSums(Ki) rowSums(Ri)

With ``entity=None`` the ``S`` terms drop out and the same functions are the
M:N rules for ``T = [I1 R1, ..., Iq Rq]``.

The squared row norms K-Means needs follow the rowSums rule with each base
matrix's own norms, never squaring ``T`` or the base matrices::

    rowSums(T * T) -> rowNorms(S) + sum_i Ki rowNorms(Ri)
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.la import kernels
from repro.la.ops import colsums, row_norms, rowsums, total_sum
from repro.la.types import MatrixLike


def rowsums_star(entity: Optional[MatrixLike], indicators: Sequence[MatrixLike],
                 attributes: Sequence[MatrixLike]) -> np.ndarray:
    """``rowSums(T)`` as an ``(n_S, 1)`` column vector."""
    n_rows = indicators[0].shape[0] if indicators else entity.shape[0]
    acc = np.zeros((n_rows, 1))
    if entity is not None and entity.shape[1] > 0:
        acc = acc + rowsums(entity)
    for indicator, attribute in zip(indicators, attributes):
        acc = acc + kernels.gather_rows(indicator, attribute)
    return acc


def row_norms_star(entity: Optional[MatrixLike], indicators: Sequence[MatrixLike],
                   attributes: Sequence[MatrixLike]) -> np.ndarray:
    """``rowSums(T * T)`` as a flat ``(n_S,)`` vector.

    Each attribute table's squared row norms are one ``(n_R, 1)`` column that
    :func:`~repro.la.kernels.gather_rows` gathers by code.
    """
    n_rows = indicators[0].shape[0] if indicators else entity.shape[0]
    if entity is not None and entity.shape[1] > 0:
        norms = row_norms(entity)
    else:
        norms = np.zeros(n_rows)
    for indicator, attribute in zip(indicators, attributes):
        norms += kernels.gather_rows(indicator, row_norms(attribute).reshape(-1, 1)).ravel()
    return norms


def colsums_star(entity: Optional[MatrixLike], indicators: Sequence[MatrixLike],
                 attributes: Sequence[MatrixLike]) -> np.ndarray:
    """``colSums(T)`` as a ``(1, d)`` row vector in column order ``[S, R1, ..., Rq]``."""
    blocks = []
    if entity is not None and entity.shape[1] > 0:
        blocks.append(colsums(entity))
    for indicator, attribute in zip(indicators, attributes):
        blocks.append(kernels.scatter_colsums(indicator, attribute))
    if not blocks:
        return np.zeros((1, 0))
    return np.hstack(blocks)


def sum_star(entity: Optional[MatrixLike], indicators: Sequence[MatrixLike],
             attributes: Sequence[MatrixLike]) -> float:
    """``sum(T)``: total of all elements of the (virtual) join output."""
    total = 0.0
    if entity is not None and entity.shape[1] > 0:
        total += total_sum(entity)
    for indicator, attribute in zip(indicators, attributes):
        total += kernels.scatter_total(indicator, attribute)
    return total
