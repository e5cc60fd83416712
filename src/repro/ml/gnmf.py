"""Gaussian non-negative matrix factorization (Algorithms 8 and 16).

GNMF factorizes the non-negative data matrix ``T`` (``n x d``) into
non-negative factors ``W`` (``n x r``) and ``H`` (``d x r``) using the
classical multiplicative updates::

    H <- H * (T^T W) / (H crossprod(W))
    W <- W * (T  H) / (W crossprod(H))

Each iteration performs one RMM-style product ``T^T W`` and one LMM ``T H``
over the data matrix -- both factorized when ``T`` is normalized -- plus small
``r x r`` regular products, which is why GNMF's speed-ups in Figure 5(d) and
Table 7 are positive but smaller than logistic/linear regression's.

The ``W`` update is row-local, so it runs as one pass over row tiles of the
LMM (:mod:`repro.core.tiles`), inside each shard of a sharded fit, and
overwrites ``W`` in place: ``W[t] <- W[t] * (T H)[t] / (W[t] crossprod(H) +
eps)``.  No ``n x r`` numerator or denominator is built.
"""

from __future__ import annotations

import functools
from typing import Optional, Tuple

import numpy as np

from repro.core.partitioned import Partitioned
from repro.core.stream import Batch
from repro.core.tiles import lmm_row_tiles, map_row_pieces
from repro.la import ops as la_ops
from repro.la.generic import to_dense_result
from repro.ml.base import (
    Epoch,
    IterativeEstimator,
    fit_telemetry,
    validate_predict_data,
)
from repro.ml.export import ServingExport


def _update_rows(piece, w_rows: np.ndarray, h: np.ndarray, gram: np.ndarray,
                 epsilon: float) -> None:
    """``W <- W * (T H) / (W gram + eps)`` on one row piece, tile by tile, in place.

    Element for element the arithmetic of the whole-matrix update, so tiled,
    sharded and whole runs agree bit for bit.  The numerator is formed in
    the LMM tile itself.
    """
    for start, stop, tile in lmm_row_tiles(piece, h):
        rows = w_rows[start:stop]
        if tile.dtype == rows.dtype:
            scaled = np.multiply(rows, tile, out=tile)
        else:
            scaled = rows * tile
        denominator = rows @ gram
        denominator += epsilon
        np.divide(scaled, denominator, out=rows)
        del denominator  # freed before the next tile's gather, not after it


class GNMF(IterativeEstimator):
    """Non-negative matrix factorization with multiplicative updates.

    Attributes
    ----------
    w_:
        Learned ``(n, r)`` row-factor matrix.
    h_:
        Learned ``(d, r)`` column-factor (topic) matrix.
    """

    _WEIGHTS = "h_"

    def __init__(self, rank: int = 5, max_iter: int = 20, seed: Optional[int] = 0,
                 track_history: bool = False, epsilon: float = 1e-12,
                 engine: str = "eager", n_jobs: Optional[int] = None,
                 solver: str = "batch", batch_size: Optional[int] = None,
                 shuffle: bool = False, memory_budget: Optional[float] = None):
        super().__init__(max_iter=max_iter, step_size=1.0, seed=seed,
                         track_history=track_history, engine=engine, n_jobs=n_jobs,
                         solver=solver, batch_size=batch_size, shuffle=shuffle,
                         memory_budget=memory_budget)
        if rank <= 0:
            raise ValueError("rank must be positive")
        self.rank = int(rank)
        self.epsilon = float(epsilon)
        self.w_: Optional[np.ndarray] = None
        self.h_: Optional[np.ndarray] = None
        #: persistent RNG of the standalone partial_fit stream (appends W rows
        #: for never-before-seen batches); reset when h_ is None.
        self._stream_rng: Optional[np.random.Generator] = None
        #: (h_ identity, projection matrix) pair backing _projection_matrix.
        self._projection_cache: Optional[Tuple[np.ndarray, np.ndarray]] = None

    def _initial_factors(self, n: int, d: int) -> Tuple[np.ndarray, np.ndarray]:
        rng = self._rng()
        w = rng.uniform(0.1, 1.0, size=(n, self.rank))
        h = rng.uniform(0.1, 1.0, size=(d, self.rank))
        return w, h

    def _workload_descriptor(self):
        from repro.core.planner import WorkloadDescriptor

        return WorkloadDescriptor.gnmf(self.rank, self.max_iter)

    @fit_telemetry
    def fit(self, data, initial_w: Optional[np.ndarray] = None,
            initial_h: Optional[np.ndarray] = None) -> "GNMF":
        """Run the multiplicative updates; *data* must be element-wise non-negative."""
        _, data, n_jobs = self._resolve_engine(data)
        n, d = data.shape
        w, h = self._initial_factors(n, d)
        if initial_w is not None:
            w = np.asarray(initial_w, dtype=np.float64).copy()
        if initial_h is not None:
            h = np.asarray(initial_h, dtype=np.float64).copy()
        if w.shape != (n, self.rank) or h.shape != (d, self.rank):
            raise ValueError("initial factors have incompatible shapes")

        self.history_ = []
        self.w_, self.h_ = w, h
        self._run_epochs(self._epoch(data, n_jobs=n_jobs))
        return self

    def _step(self, batch) -> np.ndarray:
        """One multiplicative update on *batch*; returns the batch's ``W`` rows.

        An in-order batch updates its ``W`` rows in place through a slice; a
        shuffled batch gathers its rows and writes them back.  With one batch
        covering every row this is exactly one full multiplicative iteration.
        """
        w_rows = batch.take(self.w_)
        self._update_factors(batch.data, w_rows)
        if not isinstance(batch.rows, slice):
            self.w_[batch.rows] = w_rows
        return w_rows

    def _update_factors(self, data, w_rows: np.ndarray) -> np.ndarray:
        """``H`` from the statistics of *data*, then *w_rows* against the new ``H``.

        *w_rows* holds one ``W`` row per row of *data* and is overwritten in
        place; returns it.
        """
        # H update: numerator T^T W is a factorized transposed LMM.
        numerator_h = to_dense_result(data.T @ w_rows)                      # d x r
        denominator_h = self.h_ @ la_ops.crossprod(w_rows) + self.epsilon   # d x r
        self.h_ = self.h_ * numerator_h / denominator_h
        # W update: numerator T H is a factorized LMM, consumed tile by tile.
        self._update_w(data, w_rows, self.h_)
        return w_rows

    def _update_w(self, data, w: np.ndarray, h: np.ndarray) -> None:
        """Overwrite ``w`` (one row per row of *data*) with its multiplicative update."""
        task = functools.partial(_update_rows, h=h, gram=la_ops.crossprod(h),
                                 epsilon=self.epsilon)
        map_row_pieces(data, task, w)

    def _epoch_loss(self, epoch: Epoch, loss: float) -> float:
        """Squared Frobenius reconstruction error after *epoch* (densifies; diagnostics only).

        Summed in order over row pieces -- a partitioned operand's own, else
        the epoch's in-order batches -- one densified piece at a time, by its
        own pass: tracking must be purely observational, and re-iterating a
        shuffled epoch would draw an extra permutation and change the factors.
        """
        data = epoch.data
        if not isinstance(data, Partitioned):
            data = Partitioned.streamed(data, epoch.batch_rows)
        total = 0.0
        for (start, stop), piece in zip(data.bounds, data):
            total += self._squared_error(piece, start, stop)
        return total

    def _squared_error(self, piece, start: int, stop: int) -> float:
        """``||piece - W[start:stop] H^T||_F^2``, the residual formed in the
        ``W H^T`` buffer: at most two piece-sized arrays are live, and none
        outlives the call."""
        dense = piece.to_dense() if hasattr(piece, "to_dense") else np.asarray(piece)
        residual = self.w_[start:stop] @ self.h_.T
        np.subtract(dense, residual, out=residual)
        return float(np.linalg.norm(residual) ** 2)

    def partial_fit(self, data, row_indices=None) -> "GNMF":
        """One incremental multiplicative update on a single mini-batch.

        With *row_indices* the batch updates those rows of ``w_``, as a
        shuffled fit epoch's batches do.  Without indices the
        batch is treated as **new** rows of a growing stream: fresh ``W``
        rows are drawn from the persistent seeded RNG, updated against the
        batch, and appended -- which is how the chunk-wise CSV ingestion
        trains GNMF on an entity table that is never fully resident.  ``H``
        initializes from the seeded RNG on the first call (the feature count
        comes from the batch).
        """
        data = self._partial_operand(data)
        n_b, d = data.shape
        if self.h_ is None:
            self._stream_rng = self._rng()
            self.h_ = self._stream_rng.uniform(0.1, 1.0, size=(d, self.rank))
            if self.w_ is None:
                self.w_ = np.zeros((0, self.rank))
        if row_indices is None:
            if self._stream_rng is None:
                self._stream_rng = self._rng()
            w_rows = self._stream_rng.uniform(0.1, 1.0, size=(n_b, self.rank))
            self.w_ = np.vstack([self.w_, self._update_factors(data, w_rows)])
            return self
        rows = np.asarray(row_indices, dtype=np.int64).ravel()
        if rows.shape[0] != n_b:
            raise ValueError("row_indices must have one entry per batch row")
        self._step(Batch(data, rows))
        return self

    def _projection_matrix(self) -> np.ndarray:
        """The ``(d, r)`` map taking data rows to least-squares topic loadings.

        For a row ``t`` the loadings minimizing ``||t - c H^T||`` are
        ``c = t H pinv(H^T H)``, so projection is one linear map over the
        data matrix -- which is what lets the serving subsystem factorize it.
        Cached per ``h_`` object (every update rebinds ``h_``), so repeated
        ``transform`` calls skip the pseudo-inverse.
        """
        if self._projection_cache is not None and self._projection_cache[0] is self.h_:
            return self._projection_cache[1]
        projection = self.h_ @ np.linalg.pinv(la_ops.crossprod(self.h_))
        self._projection_cache = (self.h_, projection)
        return projection

    def transform(self, data) -> np.ndarray:
        """Project rows of *data* onto the learned topic space (``(n, r)`` loadings)."""
        if self.h_ is None:
            raise RuntimeError("model is not fitted")
        data = validate_predict_data(data, self.h_.shape[0], "GNMF.transform")
        return to_dense_result(data @ self._projection_matrix())

    def export_weights(self) -> ServingExport:
        """Export the topic-projection map for the serving subsystem."""
        if self.h_ is None:
            raise RuntimeError("GNMF.export_weights: model is not fitted")
        return ServingExport("gnmf", self._projection_matrix(),
                             metadata={"rank": self.rank})

    def reconstruct(self) -> np.ndarray:
        """Return the low-rank reconstruction ``W H^T``."""
        if self.w_ is None or self.h_ is None:
            raise RuntimeError("model is not fitted")
        return self.w_ @ self.h_.T
