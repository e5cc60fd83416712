"""Rewrite rules for the matrix-inversion operators (pseudo-inverse and solve).

Paper reference: Section 3.3.6 and Appendix A/B.  The join output ``T`` is
rarely square and, even when it is, Theorem B.1 shows that invertibility
forces ``TR <= 1/FR + 1`` -- i.e. almost no redundancy -- so the paper targets
the Moore-Penrose pseudo-inverse ``ginv`` instead::

    ginv(T) -> ginv(crossprod(T)) T^T        when d <  n   (tall matrix)
    ginv(T) -> T^T ginv(crossprod(T^T))      otherwise     (wide matrix)

Both right-hand sides only need the factorized cross-product plus a
(transposed) LMM/RMM, so they stay within the rewrite framework.  The
identities hold exactly only when the corresponding Gram matrix is
non-singular (full column/row rank); for rank-deficient inputs the library
falls back to materializing ``T``, which preserves correctness at the expense
of the speed-up.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from repro.la.ops import ginv as dense_ginv
from repro.la.ops import matmul, transpose
from repro.la.types import MatrixLike, to_dense

from repro.core.rewrite.crossprod import crossprod_star_efficient, gram_transposed_star
from repro.core.rewrite.multiplication import lmm_star, rmm_star


def _is_full_rank(gram: np.ndarray, rcond: float = 1e-10) -> bool:
    """Cheap full-rank check on a (small) Gram matrix via its eigenvalue range."""
    if gram.size == 0:
        return False
    eigenvalues = np.linalg.eigvalsh((gram + gram.T) / 2.0)
    largest = float(eigenvalues[-1])
    if largest <= 0:
        return False
    return float(eigenvalues[0]) > rcond * largest


def ginv_star(entity: Optional[MatrixLike], indicators: Sequence[MatrixLike],
              attributes: Sequence[MatrixLike],
              materialize_fn: Callable[[], MatrixLike]) -> np.ndarray:
    """Factorized pseudo-inverse of a star-schema (``entity=None``: M:N) normalized matrix.

    *materialize_fn* is a zero-argument callable producing the materialized
    ``T``; it is only invoked in the rank-deficient fallback path.
    """
    n_rows = indicators[0].shape[0] if indicators else entity.shape[0]
    entity_width = entity.shape[1] if entity is not None else 0
    total_width = entity_width + sum(r.shape[1] for r in attributes)

    if total_width < n_rows:
        gram = crossprod_star_efficient(entity, indicators, attributes)
        if _is_full_rank(gram):
            # ginv(T) = ginv(T^T T) T^T = (T ginv(T^T T)^T)^T via factorized LMM.
            inv_gram = dense_ginv(gram)
            return lmm_star(entity, indicators, attributes, inv_gram.T).T
    else:
        gramian = gram_transposed_star(entity, indicators, attributes)
        if _is_full_rank(gramian):
            # ginv(T) = T^T ginv(T T^T) = (ginv(T T^T)^T T)^T via factorized RMM.
            inv_gramian = dense_ginv(gramian)
            return rmm_star(entity, indicators, attributes, inv_gramian.T).T
    return dense_ginv(to_dense(materialize_fn()))
