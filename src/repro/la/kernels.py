"""Named fused gather-multiply-reduce kernels.

The Table-1 rewrites win by pushing work into small per-table products, but
executing them as chains of generic primitives re-walks the indicator CSR
structure on every call: ``K @ (R @ X)`` is a sparse matmul whose only job is
to *gather* rows of the small product, ``colSums(K)`` is a sparse reduction
whose only job is to *count* codes, and so on.  Every one of those inner loops
is really one of a handful of fused shapes over the indicator **codes**
(:func:`repro.core.indicator.indicator_codes` -- the per-row attribute-table
row index that the CSR structure encodes):

======================  =====================================================
kernel                  fused shape
======================  =====================================================
``gather_add``          ``out += (R @ X)[codes]``            (LMM term)
``scatter_right``       ``(X K) R`` via code-binned column sums  (RMM term)
``scatter_crossprod``   ``R^T diag(bincount(codes)) R``      (diagonal block)
``cross_block``         ``R_i^T (K_i^T K_j) R_j`` via paired-code counts
``entity_cross_block``  ``(S^T K) R`` via code-binned column sums
``gather_gram``         ``out += (R R^T)[codes][:, codes]``  (Gramian term)
``gather_rows``         ``rowSums(R)[codes]``
``scatter_colsums``     ``bincount(codes) @ R``
``scatter_total``       ``bincount(codes) . rowSums(R)``
``gather_dot``          entity dot + per-table partial gather (serving)
``partial_scores``      ``R_k @ W_k`` partial-score block     (serving)
``sgd_step``            fused residual/gradient/update        (streaming)
``logistic_sgd_step``   fused score/clip/sigmoid-step         (streaming)
``take_indicator_rows`` CSR row take rebuilt straight from codes
======================  =====================================================

Each kernel is one function: gathers are ``ndarray.take``, scatters are
``bincount``, and the small base-table products go through the
:mod:`repro.la.ops` primitives.  A few kernels keep a path chosen by their
input: ``cross_block`` falls back to the sparse ``K_i^T K_j`` product when
the dense code-pair histogram would dwarf the join
(``_CROSSING_DENSITY_LIMIT``), ``scatter_right`` / ``entity_cross_block``
multiply non-ndarray operands through the indicator, and
``take_indicator_rows`` row-indexes chained and non-CSR indicators.  The
primitive chains the kernels replace live in ``tests/la/kernel_oracles.py``
as test oracles.

Callers reach every kernel through this module's attributes
(``kernels.gather_add(...)``), so golden-trace recording
(:mod:`repro.core.rewrite.trace`) and profilers can wrap them by name.  Each
call counts in ``repro_kernel_dispatch_total{kernel}`` while observability
is enabled.
"""

from __future__ import annotations

import functools
from typing import Callable, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from repro import obs
from repro.la.chain import ChainedIndicator
from repro.la.ops import diag_scale_rows, matmul, rowsums, transpose
from repro.la.types import MatrixLike, to_dense

__all__ = [
    "KERNEL_NAMES",
    "cross_block",
    "entity_cross_block",
    "gather_add",
    "gather_dot",
    "gather_gram",
    "gather_rows",
    "logistic_sgd_step",
    "partial_scores",
    "result_dtype",
    "scatter_colsums",
    "scatter_crossprod",
    "scatter_right",
    "scatter_total",
    "sgd_step",
    "take_indicator_rows",
]

KERNEL_NAMES = (
    "gather_add", "scatter_right", "scatter_crossprod", "cross_block",
    "entity_cross_block", "gather_gram", "gather_rows", "scatter_colsums",
    "scatter_total", "gather_dot", "partial_scores", "sgd_step",
    "logistic_sgd_step", "take_indicator_rows",
)

#: When a fused cross_block would materialize a code-pair count matrix this
#: many times larger than the join itself, the sparse product wins.
_CROSSING_DENSITY_LIMIT = 16


# ---------------------------------------------------------------------------
# Lazy late-bound helpers (repro.core / repro.ml import repro.la, not vice
# versa at module load -- resolving these inside the call breaks the cycle).
# ---------------------------------------------------------------------------

_indicator_codes: Optional[Callable] = None
_clip_scores: Optional[Callable] = None


def _codes(indicator: MatrixLike) -> np.ndarray:
    global _indicator_codes
    if _indicator_codes is None:
        from repro.core.indicator import indicator_codes
        _indicator_codes = indicator_codes
    return _indicator_codes(indicator)


def _clip(scores: np.ndarray) -> np.ndarray:
    global _clip_scores
    if _clip_scores is None:
        from repro.ml.metrics import clip_scores
        _clip_scores = clip_scores
    return _clip_scores(scores)


def _dense_result(x) -> np.ndarray:
    """Densify an operator result (mirror of ``la.generic.to_dense_result``)."""
    if hasattr(x, "to_dense"):
        return x.to_dense()
    return to_dense(x)


def _scatter_columns(x: np.ndarray, codes: np.ndarray, n_cols: int) -> np.ndarray:
    """``X @ K`` without the CSR product: bin columns of ``x`` by code."""
    out = np.empty((x.shape[0], n_cols))
    for r in range(x.shape[0]):
        out[r] = np.bincount(codes, weights=x[r], minlength=n_cols)
    return out


def _counts(indicator: MatrixLike) -> np.ndarray:
    """``colSums(K)`` as float64 fan-out counts, one per attribute row."""
    counts = np.bincount(_codes(indicator), minlength=indicator.shape[1])
    return counts.astype(np.float64)


def result_dtype(*operands) -> np.dtype:
    """The floating result dtype of a factorized operator.

    Combines the dtypes of the *data* operands (entity, attribute tables,
    multiplier) -- indicator matrices are excluded by the callers because
    their stored float64 ones are structural, not data, and would silently
    upcast float32 pipelines.  Non-float combinations (integer/bool tables)
    resolve to float64: the accumulating kernels need a float accumulator.
    """
    dtypes = [op.dtype for op in operands
              if op is not None and hasattr(op, "dtype")]
    if not dtypes:
        return np.dtype(np.float64)
    dtype = np.result_type(*dtypes)
    if dtype.kind != "f":
        return np.dtype(np.float64)
    return dtype


_DISPATCH_TOTAL = obs.REGISTRY.counter(
    "repro_kernel_dispatch_total",
    "Kernel calls by kernel name",
    labels=("kernel",),
)


def _kernel(fn: Callable) -> Callable:
    """Count every call of a public kernel while observability is enabled."""
    name = fn.__name__

    @functools.wraps(fn)
    def counted(*args, **kwargs):
        if obs.enabled():
            _DISPATCH_TOTAL.labels(kernel=name).inc()
        return fn(*args, **kwargs)

    return counted


# ---------------------------------------------------------------------------
# Public kernels
# ---------------------------------------------------------------------------

@_kernel
def gather_add(out: np.ndarray, indicator: MatrixLike, attribute: MatrixLike,
               block: np.ndarray) -> np.ndarray:
    """Accumulate ``K (R @ block)`` into *out* (the LMM per-table term)."""
    small = np.ascontiguousarray(to_dense(matmul(attribute, block)))
    # ndarray.take on a contiguous array is the fast gather path -- it beats
    # both generic fancy indexing and the one-nnz-per-row CSR matmul.
    out += small.take(_codes(indicator), axis=0)
    return out


@_kernel
def scatter_right(x: MatrixLike, indicator: MatrixLike, attribute: MatrixLike,
                  dtype: np.dtype) -> np.ndarray:
    """``(X K) R``: one RMM output block, cast to the operator result dtype."""
    if isinstance(x, np.ndarray):
        xk = _scatter_columns(np.ascontiguousarray(x, dtype=np.float64),
                              _codes(indicator), indicator.shape[1])
    else:
        # Sparse X: the intermediate X K is only m x nR.
        xk = matmul(x, indicator)
    return np.asarray(to_dense(matmul(xk, attribute)), dtype=dtype)


@_kernel
def scatter_crossprod(indicator: MatrixLike, attribute: MatrixLike,
                      dtype: np.dtype) -> np.ndarray:
    """``R^T (K^T K) R`` via the fan-out counts (diagonal cross-product block)."""
    counts = _counts(indicator)
    if isinstance(attribute, np.ndarray):
        weights = counts.astype(dtype)
        return np.asarray((attribute * weights[:, None]).T @ attribute, dtype=dtype)
    scaled = diag_scale_rows(counts, attribute)
    return np.asarray(to_dense(matmul(transpose(attribute), scaled)), dtype=dtype)


@_kernel
def cross_block(indicator_i: MatrixLike, indicator_j: MatrixLike,
                attribute_i: MatrixLike, attribute_j: MatrixLike,
                dtype: np.dtype) -> np.ndarray:
    """``R_i^T (K_i^T K_j) R_j``: one off-diagonal cross-product block."""
    ci, cj = _codes(indicator_i), _codes(indicator_j)
    ni, nj = indicator_i.shape[1], indicator_j.shape[1]
    if ni * nj > _CROSSING_DENSITY_LIMIT * max(ci.size, 1):
        # The dense code-pair histogram would dwarf the data; let the sparse
        # K_i^T K_j product exploit its own structure instead.
        crossing = matmul(transpose(indicator_i), indicator_j)
    else:
        crossing = np.bincount(ci * nj + cj, minlength=ni * nj)
        crossing = crossing.astype(np.float64).reshape(ni, nj)
    inner = matmul(crossing, attribute_j)
    block = to_dense(matmul(transpose(attribute_i), inner))
    return np.asarray(block, dtype=dtype)


@_kernel
def entity_cross_block(entity: MatrixLike, indicator: MatrixLike,
                       attribute: MatrixLike, dtype: np.dtype) -> np.ndarray:
    """``(S^T K) R``: the entity/table cross-product block."""
    if isinstance(entity, np.ndarray):
        sk = _scatter_columns(np.ascontiguousarray(entity.T, dtype=np.float64),
                              _codes(indicator), indicator.shape[1])
    else:
        # Sparse S: small intermediate of size dS x nR.
        sk = matmul(transpose(entity), indicator)
    return np.asarray(to_dense(matmul(sk, attribute)), dtype=dtype)


@_kernel
def gather_gram(out: np.ndarray, indicator: MatrixLike,
                attribute: MatrixLike) -> np.ndarray:
    """Accumulate ``K (R R^T) K^T`` into *out* (the Gramian per-table term)."""
    inner = np.ascontiguousarray(to_dense(matmul(attribute, transpose(attribute))))
    codes = _codes(indicator)
    out += inner.take(codes, axis=0).take(codes, axis=1)
    return out


@_kernel
def gather_rows(indicator: MatrixLike, attribute: MatrixLike) -> np.ndarray:
    """``K rowSums(R)`` as an ``(n, 1)`` column (rowSums per-table term)."""
    rs = np.ascontiguousarray(rowsums(attribute), dtype=np.float64)
    return rs.take(_codes(indicator), axis=0)


@_kernel
def scatter_colsums(indicator: MatrixLike, attribute: MatrixLike) -> np.ndarray:
    """``colSums(K) R`` as a ``(1, d_R)`` row (colSums per-table term)."""
    counts = _counts(indicator).reshape(1, -1)
    return np.asarray(to_dense(matmul(counts, attribute)), dtype=np.float64)


@_kernel
def scatter_total(indicator: MatrixLike, attribute: MatrixLike) -> float:
    """``colSums(K) rowSums(R)`` as a float (sum per-table term)."""
    rs = np.asarray(rowsums(attribute), dtype=np.float64).ravel()
    return float(_counts(indicator) @ rs)


@_kernel
def gather_dot(base: np.ndarray, partials: Sequence[np.ndarray],
               code_rows: Sequence[np.ndarray]) -> np.ndarray:
    """Serving score assembly: *base* plus one partial-row gather per table."""
    out = np.array(base, dtype=np.float64)
    for partial, rows in zip(partials, code_rows):
        out += partial.take(np.asarray(rows, dtype=np.intp), axis=0)
    return out


@_kernel
def partial_scores(attribute: MatrixLike, weight_slice: np.ndarray) -> np.ndarray:
    """One table's read-only partial-score block ``R_k @ W_k`` (``n_Rk x m``)."""
    partial = np.asarray(to_dense(attribute @ weight_slice), dtype=np.float64)
    if partial.ndim == 1:
        partial = partial.reshape(-1, 1)
    partial.setflags(write=False)
    return partial


@_kernel
def sgd_step(data, y: np.ndarray, w: np.ndarray,
             step_size: float) -> Tuple[np.ndarray, float]:
    """One fused least-squares mini-batch step; returns ``(w_new, batch_sse)``."""
    residual = _dense_result(data @ w) - y
    gradient = _dense_result(data.T @ residual)
    return w - step_size * gradient, float(np.sum(residual ** 2))


@_kernel
def logistic_sgd_step(data, y: np.ndarray, w: np.ndarray, step_size: float,
                      update: str) -> Tuple[np.ndarray, np.ndarray]:
    """One fused logistic mini-batch step; returns ``(w_new, batch_scores)``."""
    scores = _dense_result(data @ w)
    if update == "paper":
        p = y / (1.0 + np.exp(_clip(scores)))
    else:
        p = y / (1.0 + np.exp(_clip(y * scores)))
    w = w + step_size * _dense_result(data.T @ p)
    return w, scores


@_kernel
def take_indicator_rows(indicator: MatrixLike, indices: np.ndarray) -> MatrixLike:
    """Row-take of an indicator; CSR indicators rebuild straight from codes."""
    if isinstance(indicator, ChainedIndicator) or not sp.issparse(indicator):
        return indicator[indices, :]
    # One non-zero per row: the sliced CSR is fully determined by the gathered
    # codes, so build it directly instead of running generic fancy indexing.
    taken = np.ascontiguousarray(_codes(indicator)[indices], dtype=np.int64)
    n = taken.shape[0]
    return sp.csr_matrix(
        (np.ones(n, dtype=indicator.dtype), taken, np.arange(n + 1, dtype=np.int64)),
        shape=(n, indicator.shape[1]),
    )
