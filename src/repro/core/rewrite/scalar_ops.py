"""Rewrite rules for element-wise scalar operators and scalar functions.

Paper reference: Section 3.3.1 (single PK-FK join), Section 3.5 (star schema)
and Appendix D/E (M:N joins).  The rules are trivial but ubiquitous: an
element-wise operation between the normalized matrix and a scalar, or a scalar
function applied element-wise, simply distributes over the base matrices and
leaves the indicator matrices untouched, so the output is again a normalized
matrix with the same structure::

    T (op) x  ->  (S (op) x, K1, ..., Kq, R1 (op) x, ..., Rq (op) x)
    f(T)      ->  (f(S),     K1, ..., Kq, f(R1),     ..., f(Rq))

An M:N matrix has no ``S`` (``entity=None``), which passes through as ``None``.

The saving is the ratio of the materialized size to the total base-table size.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.la.ops import elementwise, scalar_op
from repro.la.types import MatrixLike

BaseMatrices = Tuple[Optional[MatrixLike], List[MatrixLike]]


def scalar_op_star(entity: Optional[MatrixLike], attributes: Sequence[MatrixLike],
                   op: str, scalar: float, reverse: bool = False) -> BaseMatrices:
    """Apply ``T (op) x`` (or ``x (op) T``) by distributing over ``S`` and every ``R_i``."""
    new_entity = scalar_op(entity, op, scalar, reverse=reverse) if entity is not None else None
    new_attributes = [scalar_op(r, op, scalar, reverse=reverse) for r in attributes]
    return new_entity, new_attributes


def function_star(entity: Optional[MatrixLike], attributes: Sequence[MatrixLike],
                  fn: Callable[[np.ndarray], np.ndarray]) -> BaseMatrices:
    """Apply an element-wise scalar function ``f(T)`` by distributing over the bases."""
    new_entity = elementwise(entity, fn) if entity is not None else None
    new_attributes = [elementwise(r, fn) for r in attributes]
    return new_entity, new_attributes
