"""Primitive-chain oracles for the fused kernels of :mod:`repro.la.kernels`.

Each oracle computes what one kernel computes, but as the plain chain of
:mod:`repro.la.ops` primitives the Table-1 rewrite rules spell out (``K (R X)``
is a sparse indicator product, ``colSums(K)`` a sparse reduction, ...) or,
for the serving and SGD kernels, as the textbook dense formula.  The kernel
tests compare every kernel against its oracle; :func:`oracle_kernels` swaps
all of them in at once so whole Table-1 operators can run on the oracles.
"""

from __future__ import annotations

import contextlib
from typing import Sequence, Tuple

import numpy as np

from repro.la import kernels
from repro.la.ops import colsums, crossprod, diag_scale_rows, matmul, rowsums, transpose
from repro.la.types import MatrixLike, to_dense
from repro.ml.metrics import clip_scores


def _dense(x) -> np.ndarray:
    return x.to_dense() if hasattr(x, "to_dense") else to_dense(x)


def gather_add(out: np.ndarray, indicator: MatrixLike, attribute: MatrixLike,
               block) -> np.ndarray:
    # K (R X): compute the small product first (unless a row tile of the
    # tiled LMM passes it as block=None), then scatter through K.
    small = attribute if block is None else matmul(attribute, block)
    out += to_dense(matmul(indicator, small))
    return out


def scatter_right(x: MatrixLike, indicator: MatrixLike, attribute: MatrixLike,
                  dtype: np.dtype) -> np.ndarray:
    # (X K) R: the intermediate X K is only m x nR.
    return np.asarray(to_dense(matmul(matmul(x, indicator), attribute)), dtype=dtype)


def scatter_crossprod(indicator: MatrixLike, attribute: MatrixLike,
                      dtype: np.dtype) -> np.ndarray:
    counts = colsums(indicator)
    scaled = diag_scale_rows(np.sqrt(np.asarray(counts).ravel()), attribute)
    return np.asarray(to_dense(crossprod(scaled)), dtype=dtype)


def cross_block(indicator_i: MatrixLike, indicator_j: MatrixLike,
                attribute_i: MatrixLike, attribute_j: MatrixLike,
                dtype: np.dtype) -> np.ndarray:
    crossing = matmul(transpose(indicator_i), indicator_j)
    block = to_dense(matmul(transpose(attribute_i), matmul(crossing, attribute_j)))
    return np.asarray(block, dtype=dtype)


def entity_cross_block(entity: MatrixLike, indicator: MatrixLike,
                       attribute: MatrixLike, dtype: np.dtype) -> np.ndarray:
    # (S^T K) R: small intermediate of size dS x nR.
    partial = to_dense(matmul(matmul(transpose(entity), indicator), attribute))
    return np.asarray(partial, dtype=dtype)


def gather_gram(out: np.ndarray, indicator: MatrixLike,
                attribute: MatrixLike) -> np.ndarray:
    inner = matmul(attribute, transpose(attribute))
    out += to_dense(matmul(matmul(indicator, inner), transpose(indicator)))
    return out


def gather_rows(indicator: MatrixLike, attribute: MatrixLike) -> np.ndarray:
    return to_dense(matmul(indicator, rowsums(attribute)))


def scatter_colsums(indicator: MatrixLike, attribute: MatrixLike) -> np.ndarray:
    return to_dense(matmul(colsums(indicator), attribute))


def scatter_total(indicator: MatrixLike, attribute: MatrixLike) -> float:
    partial = matmul(colsums(indicator), rowsums(attribute))
    return float(to_dense(partial).ravel()[0])


def gather_dot(base: np.ndarray, partials: Sequence[np.ndarray],
               code_rows: Sequence[np.ndarray]) -> np.ndarray:
    out = np.array(base, dtype=np.float64)
    for partial, rows in zip(partials, code_rows):
        out += partial[rows, :]
    return out


def partial_scores(attribute: MatrixLike, weight_slice: np.ndarray) -> np.ndarray:
    weights = np.asarray(weight_slice, dtype=np.float64)
    if weights.ndim == 1:
        weights = weights[:, None]
    return to_dense(attribute).astype(np.float64) @ weights


def sgd_step(data, y: np.ndarray, w: np.ndarray,
             step_size: float) -> Tuple[np.ndarray, np.ndarray]:
    dense = np.asarray(_dense(data), dtype=np.float64)
    residual = dense @ w - y
    return w - step_size * (dense.T @ residual), residual


def logistic_sgd_step(data, y: np.ndarray, w: np.ndarray, step_size: float,
                      update: str) -> Tuple[np.ndarray, np.ndarray]:
    dense = np.asarray(_dense(data), dtype=np.float64)
    scores = dense @ w
    margin = scores if update == "paper" else y * scores
    p = y / (1.0 + np.exp(clip_scores(margin)))
    return w + step_size * (dense.T @ p), scores


def take_indicator_rows(indicator: MatrixLike, indices: np.ndarray) -> MatrixLike:
    return indicator[indices, :]


ORACLES = {name: globals()[name] for name in kernels.KERNEL_NAMES}


@contextlib.contextmanager
def swap_kernels(replace):
    """Point every ``kernels.<name>`` at ``replace(name, kernel)`` inside the block."""
    originals = {name: getattr(kernels, name) for name in kernels.KERNEL_NAMES}
    try:
        for name, kernel in originals.items():
            setattr(kernels, name, replace(name, kernel))
        yield
    finally:
        for name, kernel in originals.items():
            setattr(kernels, name, kernel)


def oracle_kernels():
    """Run every caller of ``kernels.<name>`` on the oracles instead."""
    return swap_kernels(lambda name, _kernel: ORACLES[name])
