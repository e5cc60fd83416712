"""Named fused gather-multiply-reduce kernels.

The Table-1 rewrites win by pushing work into small per-table products, but
executing them as chains of generic primitives re-walks the indicator CSR
structure on every call: ``K @ (R @ X)`` is a sparse matmul whose only job is
to *gather* rows of the small product, ``colSums(K)`` is a sparse reduction
whose only job is to *count* codes, and so on.  Every one of those inner loops
is really one of a handful of fused shapes over the indicator **codes**
(:attr:`repro.la.indicator.Indicator.codes` -- the per-row attribute-table
row index each indicator stores):

======================  =====================================================
kernel                  fused shape
======================  =====================================================
``gather_add``          ``out += (R @ X)[codes]``            (LMM term, or one
                        row tile of it from a precomputed ``R @ X``)
``scatter_right``       ``(X K) R`` via code-binned column sums  (RMM term);
                        a code-pair histogram when ``X = K_A^T``
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
``take_indicator_rows`` row take: ``codes[rows]``, still an indicator
======================  =====================================================

Each kernel is one function: gathers are ``ndarray.take``, scatters are
``bincount`` or a product with the indicator's cached CSR form, and the
small base-table products go through the :mod:`repro.la.ops` primitives.  A
few kernels keep a path chosen by their input:

* ``cross_block`` counts the code pairs into a sparse ``K_i^T K_j`` when the
  dense code-pair histogram would dwarf the join
  (``_CROSSING_DENSITY_LIMIT``);
* ``scatter_right`` counts code pairs when ``X`` is a transposed indicator
  ``K_A^T`` (through the same histogram helper and density fallback as
  ``cross_block``);
* ``scatter_right`` / ``entity_cross_block`` bin a dense column-major
  multi-row ``X`` (``W^T``, ``S^T``) through ``X @ K.sparse()`` once ``K``
  has ``_CSR_SCATTER_MIN_ROWS`` rows, and with one ``bincount`` per row of
  ``X`` otherwise (see :func:`_scatter_columns`); other non-ndarray operands
  multiply through the CSR form;
* ``gather_add`` is called once per table on a whole LMM, or once per table
  and row tile by the tiled LMM of :mod:`repro.core.rewrite.multiplication`,
  which computes each ``R @ X`` once per call and passes it with
  ``block=None``.

Kernels index with each indicator's writable codes (``Indicator._codes``):
NumPy copies a read-only index on every ``take`` or ``bincount``.  The
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
from repro.la.generic import to_dense_result
from repro.la.indicator import Indicator
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
#: many times larger than the join itself, sparse counts win.
_CROSSING_DENSITY_LIMIT = 16

#: Indicators with at least this many rows scatter a dense multi-row ``X``
#: through their cached CSR form (``X @ K.sparse()``) instead of one
#: ``bincount(weights=)`` per row of ``X``.  Measured on a 2-vCPU Xeon (NumPy
#: 2.4, SciPy 1.17, one BLAS thread) for five rows of a transposed ``W``:
#: 100k rows, 0.48 ms through the cached CSR against 1.97 ms binned (0.72 ms
#: even with the CSR built in the call); 32k rows, 0.32 against 0.56 ms;
#: 8k rows, 0.11 against 0.12 ms, and 0.18 ms once the CSR build is counted.
#: A shuffled mini-batch indicator is used once or twice, so below the bound
#: the build is not repaid, and a single-row ``X`` (a GD gradient) always bins.
#: Only a column-major ``X`` -- a transposed view such as ``W^T`` or ``S^T``,
#: the layout ``T^T W`` and ``S^T K`` pass -- takes the CSR product, which
#: reads it in place; SciPy copies any other layout first, and bincount over
#: contiguous rows then wins (1.9 against 3.9 ms at 200k rows).
_CSR_SCATTER_MIN_ROWS = 32_768


# ---------------------------------------------------------------------------
# Late-bound helper: repro.ml imports repro.la, so resolving it inside the
# call breaks the import cycle.
# ---------------------------------------------------------------------------

_clip_scores: Optional[Callable] = None


def _clip(scores: np.ndarray) -> np.ndarray:
    global _clip_scores
    if _clip_scores is None:
        from repro.ml.metrics import clip_scores
        _clip_scores = clip_scores
    return _clip_scores(scores)


def _scatter_columns(x: np.ndarray, indicator: Indicator) -> np.ndarray:
    """``X @ K`` for a dense ``X``: sum the columns of ``x`` by code.

    Both paths add each code's columns in row order, so they agree bit for
    bit; :data:`_CSR_SCATTER_MIN_ROWS` picks between them.
    """
    codes, n_cols = indicator._codes, indicator.shape[1]
    if x.shape[0] > 1 and x.flags.f_contiguous and codes.shape[0] >= _CSR_SCATTER_MIN_ROWS:
        return np.asarray(x @ indicator.sparse(), dtype=np.float64)
    # bincount reads each row of a strided X (W^T, S^T) through a one-row copy.
    out = np.empty((x.shape[0], n_cols))
    for r in range(x.shape[0]):
        out[r] = np.bincount(codes, weights=x[r], minlength=n_cols)
    return out


def _code_pair_counts(codes_i: np.ndarray, codes_j: np.ndarray, n_i: int,
                      n_j: int) -> MatrixLike:
    """``K_i^T K_j`` from the two code vectors: the dense code-pair histogram,
    or the same counts as a sparse matrix when the histogram would dwarf the
    join."""
    if n_i * n_j > _CROSSING_DENSITY_LIMIT * max(codes_i.size, 1):
        return sp.csr_matrix((np.ones(codes_i.size), (codes_i, codes_j)), shape=(n_i, n_j))
    counts = np.bincount(codes_i * n_j + codes_j, minlength=n_i * n_j)
    return counts.astype(np.float64).reshape(n_i, n_j)


def _counts(indicator: MatrixLike) -> np.ndarray:
    """``colSums(K)`` as float64 fan-out counts, one per attribute row."""
    counts = np.bincount(indicator._codes, minlength=indicator.shape[1])
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
               block: Optional[np.ndarray]) -> np.ndarray:
    """Accumulate ``K (R @ block)`` into *out* (the LMM per-table term).

    With ``block=None``, *attribute* already holds the product ``R @ X``
    (C-contiguous) and *indicator* is one row tile of ``K``.
    """
    if block is None:
        small = attribute
    else:
        small = np.ascontiguousarray(to_dense(matmul(attribute, block)))
    # ndarray.take on a contiguous array is the fast gather path -- it beats
    # both generic fancy indexing and the one-nnz-per-row CSR matmul.
    out += small.take(indicator._codes, axis=0)
    return out


@_kernel
def scatter_right(x: MatrixLike, indicator: MatrixLike, attribute: MatrixLike,
                  dtype: np.dtype) -> np.ndarray:
    """``(X K) R``: one RMM output block, cast to the operator result dtype."""
    if isinstance(x, np.ndarray):
        xk = _scatter_columns(x, indicator)
    elif isinstance(x, Indicator) and x.transposed:
        # X = K_A^T: X K = K_A^T K is the code-pair histogram of the two codes.
        xk = _code_pair_counts(x._codes, indicator._codes, x.shape[0], indicator.shape[1])
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
    crossing = _code_pair_counts(indicator_i._codes, indicator_j._codes,
                                 indicator_i.shape[1], indicator_j.shape[1])
    inner = matmul(crossing, attribute_j)
    block = to_dense(matmul(transpose(attribute_i), inner))
    return np.asarray(block, dtype=dtype)


@_kernel
def entity_cross_block(entity: MatrixLike, indicator: MatrixLike,
                       attribute: MatrixLike, dtype: np.dtype) -> np.ndarray:
    """``(S^T K) R``: the entity/table cross-product block."""
    if isinstance(entity, np.ndarray):
        sk = _scatter_columns(entity.T, indicator)
    else:
        # Sparse S: small intermediate of size dS x nR.
        sk = matmul(transpose(entity), indicator)
    return np.asarray(to_dense(matmul(sk, attribute)), dtype=dtype)


@_kernel
def gather_gram(out: np.ndarray, indicator: MatrixLike,
                attribute: MatrixLike) -> np.ndarray:
    """Accumulate ``K (R R^T) K^T`` into *out* (the Gramian per-table term)."""
    inner = np.ascontiguousarray(to_dense(matmul(attribute, transpose(attribute))))
    codes = indicator._codes
    out += inner.take(codes, axis=0).take(codes, axis=1)
    return out


@_kernel
def gather_rows(indicator: MatrixLike, attribute: MatrixLike) -> np.ndarray:
    """``K rowSums(R)`` as an ``(n, 1)`` column (rowSums per-table term)."""
    rs = np.ascontiguousarray(rowsums(attribute), dtype=np.float64)
    return rs.take(indicator._codes, axis=0)


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
             step_size: float) -> Tuple[np.ndarray, np.ndarray]:
    """One fused least-squares mini-batch step; returns ``(w_new, batch_residual)``."""
    residual = to_dense_result(data @ w)
    residual -= y  # in place: one n-row temporary per step
    gradient = to_dense_result(data.T @ residual)
    return w - step_size * gradient, residual


@_kernel
def logistic_sgd_step(data, y: np.ndarray, w: np.ndarray, step_size: float,
                      update: str) -> Tuple[np.ndarray, np.ndarray]:
    """One fused logistic mini-batch step; returns ``(w_new, batch_scores)``."""
    scores = to_dense_result(data @ w)
    # p = y / (1 + exp(clip(margin))), in one buffer.
    p = _clip(scores if update == "paper" else y * scores)
    np.exp(p, out=p)
    p += 1.0
    np.divide(y, p, out=p)
    w = w + step_size * to_dense_result(data.T @ p)
    return w, scores


@_kernel
def take_indicator_rows(indicator: MatrixLike, indices: np.ndarray) -> MatrixLike:
    """Row-take of an indicator: an :class:`Indicator` gathers its codes."""
    return indicator[indices, :]
