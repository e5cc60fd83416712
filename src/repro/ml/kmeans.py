"""K-Means clustering expressed in bulk linear algebra (Algorithms 7 and 15).

The per-iteration data-intensive work consists of

* the squared-distance computation, which needs ``rowSums(T ^ 2)`` once and a
  full matrix-matrix LMM ``T C`` each iteration, and
* the centroid update, which needs the transposed LMM ``T^T A``.

All three operators have factorized rewrites, which is why K-Means benefits
from normalized data even though it also performs extra regular-matrix work
(the assignment step), explaining the more modest speed-ups in Figure 5(c).

The assignment is itself an indicator ``K_A`` (one 1 per row, in the row's
cluster column), so the centroid update passes the sparse
``indicator_from_labels(labels, k)`` and never builds an n x k one-hot: on a
normalized matrix ``T^T K_A`` runs each ``K_A^T K_i`` as the code-pair
histogram Algorithm 2 uses for ``K_i^T K_j``.  The distance step
``rowSums(T^2) + |c|^2 - T (2 C)`` is row-local, so it runs as one pass over
row tiles of the LMM (:mod:`repro.core.tiles`), inside each shard of a
sharded fit, and keeps only each row's label and nearest distance; the
inertia is the sum of those distances.  ``rowSums(T^2)`` is computed once
per fit from each base matrix's own row norms, gathered by code, without
squaring ``T``.  No n x k array is built.

One deliberate deviation from the paper's pseudo-code: the paper assigns
points with a boolean equality test ``A = (D == rowMin(D))``, which can assign
a point to several clusters when distances tie.  We break ties by the lowest
cluster index (an argmin), which keeps the assignment matrix a proper 0/1
partition and makes factorized and materialized runs bit-identical.
"""

from __future__ import annotations

import functools
from typing import Optional, Tuple

import numpy as np

from repro.core.stream import Batch, NormalizedBatchIterator
from repro.core.tiles import lmm_row_tiles, map_row_pieces, squared_row_norms
from repro.la.generic import to_dense_result
from repro.la.ops import indicator_from_labels
from repro.ml.base import (
    Epoch,
    IterativeEstimator,
    fit_telemetry,
    validate_predict_data,
)
from repro.ml.export import ServingExport


def _nearest_in_piece(piece, point_norms: np.ndarray, labels: np.ndarray,
                      nearest: np.ndarray, doubled: np.ndarray,
                      centroid_norms: np.ndarray) -> None:
    """Fill one row piece's *labels* and *nearest* squared distances, tile by tile.

    Each LMM tile ``(T (2 C))[t]`` becomes its distance tile in place,
    ``(|c|^2 - (T (2 C))[t]) + rowSums(T^2)[t]``; every path (whole, tiled,
    sharded, mini-batch, materialized) runs this arithmetic, so they agree
    bit for bit.
    """
    for start, stop, tile in lmm_row_tiles(piece, doubled):
        distances = tile if tile.dtype == np.float64 else tile.astype(np.float64)
        np.subtract(centroid_norms, distances, out=distances)
        distances += point_norms[start:stop, None]
        rows = np.argmin(distances, axis=1)
        labels[start:stop] = rows
        nearest[start:stop] = np.take_along_axis(distances, rows[:, None], axis=1)[:, 0]


def nearest_centroids(data, centroids: np.ndarray, point_norms: np.ndarray,
                      labels: Optional[np.ndarray] = None,
                      nearest: Optional[np.ndarray] = None
                      ) -> Tuple[np.ndarray, np.ndarray]:
    """``(labels, nearest)``: each row's closest centroid column and squared distance.

    *point_norms* is ``rowSums(T^2)`` (:func:`~repro.core.tiles.squared_row_norms`);
    ties go to the lowest cluster index.  The results fill *labels* and
    *nearest* when given (a fit reuses them across iterations), each shard of
    a partitioned *data* writing its own rows.
    """
    n = data.shape[0]
    labels = np.empty(n, dtype=np.intp) if labels is None else labels
    nearest = np.empty(n) if nearest is None else nearest
    task = functools.partial(_nearest_in_piece, doubled=2 * centroids,
                             centroid_norms=np.sum(centroids ** 2, axis=0))
    map_row_pieces(data, task, point_norms, labels, nearest)
    return labels, nearest


class KMeans(IterativeEstimator):
    """Lloyd's algorithm written as bulk LA over the data matrix.

    Attributes
    ----------
    centroids_:
        ``(d, k)`` matrix of cluster centroids (centroids are columns, matching
        the paper's layout).
    labels_:
        ``(n,)`` integer cluster assignment of each training row.
    inertia_:
        Final within-cluster sum of squared distances.
    """

    _WEIGHTS = "centroids_"

    def __init__(self, num_clusters: int = 10, max_iter: int = 20,
                 seed: Optional[int] = 0, track_history: bool = False,
                 engine: str = "eager", n_jobs: Optional[int] = None,
                 solver: str = "batch", batch_size: Optional[int] = None,
                 shuffle: bool = False, memory_budget: Optional[float] = None):
        super().__init__(max_iter=max_iter, step_size=1.0, seed=seed,
                         track_history=track_history, engine=engine, n_jobs=n_jobs,
                         solver=solver, batch_size=batch_size, shuffle=shuffle,
                         memory_budget=memory_budget)
        if num_clusters <= 0:
            raise ValueError("num_clusters must be positive")
        self.num_clusters = int(num_clusters)
        self.centroids_: Optional[np.ndarray] = None
        self.labels_: Optional[np.ndarray] = None
        self.inertia_: Optional[float] = None
        #: per-cluster sums/counts accumulated over the batches of the current
        #: epoch (or the partial_fit stream); reset at every fit epoch.
        self._stream_sums: Optional[np.ndarray] = None
        self._stream_counts: Optional[np.ndarray] = None
        #: (squared norms, labels, nearest distances) of the rows being fitted,
        #: set for the span of one fit or partial_fit call.
        self._rows: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None

    def _initial_centroids(self, data) -> np.ndarray:
        """Random Gaussian initialization, seeded so F and M runs coincide."""
        d = data.shape[1]
        rng = self._rng()
        return rng.standard_normal((d, self.num_clusters))

    def _workload_descriptor(self):
        from repro.core.planner import WorkloadDescriptor

        return WorkloadDescriptor.kmeans(self.num_clusters, self.max_iter)

    @fit_telemetry
    def fit(self, data, initial_centroids: Optional[np.ndarray] = None) -> "KMeans":
        _, data, n_jobs = self._resolve_engine(data)
        n, d = data.shape
        k = self.num_clusters
        centroids = (np.asarray(initial_centroids, dtype=np.float64)
                     if initial_centroids is not None else self._initial_centroids(data))
        if centroids.shape != (d, k):
            raise ValueError(
                f"initial centroids must have shape ({d}, {k}), got {centroids.shape}"
            )
        self.history_ = []
        epoch = self._epoch(data, n_jobs=n_jobs)
        # Loop-invariant term, hoisted: the per-point squared norms rowSums(T ^ 2).
        self._rows = (squared_row_norms(epoch.operand), np.empty(n, dtype=np.intp),
                      np.empty(n))
        self.centroids_ = centroids
        try:
            self._run_epochs(epoch)
            if epoch.single:
                # The last epoch assigned every row under the final centroids.
                inertia = float(np.sum(self._rows[2]))
            else:
                inertia = self._assign_in_order(epoch)
            self.labels_ = self._rows[1]
        finally:
            self._rows = None
        self.inertia_ = inertia
        return self

    def _cluster_sums(self, data, labels: np.ndarray):
        """Per-cluster counts ``(1, k)`` and coordinate sums ``T^T K_A`` ``(d, k)``."""
        k = self.num_clusters
        counts = np.bincount(labels, minlength=k).astype(np.float64).reshape(1, k)
        sums = to_dense_result(data.T @ indicator_from_labels(labels, k))
        return counts, sums

    def _start_epoch(self) -> None:
        """Forget the accumulated per-cluster sums/counts."""
        self._stream_sums = None
        self._stream_counts = None

    def _step(self, batch) -> np.ndarray:
        """One Lloyd update on *batch*; returns its rows' nearest squared distances.

        Assigns the batch rows to the nearest current centroid, folds the
        batch's per-cluster sums and counts into the statistics accumulated
        since the epoch began, and moves every touched centroid to the mean
        of the points seen so far; untouched clusters keep their centroid.
        With one batch covering every row this is exactly one Lloyd
        iteration.
        """
        norms, labels, nearest = (batch.take(column) for column in self._rows)
        nearest_centroids(batch.data, self.centroids_, norms, labels, nearest)
        counts, sums = self._cluster_sums(batch.data, labels)
        if self._stream_sums is not None:
            counts = self._stream_counts + counts
            sums = self._stream_sums + sums
        self._stream_counts, self._stream_sums = counts, sums
        # Keep the previous centroid for empty clusters instead of dividing by zero.
        safe_counts = np.where(counts > 0, counts, 1.0)
        self.centroids_ = np.where(counts > 0, sums / safe_counts, self.centroids_)
        return nearest

    def _batch_loss(self, batch, nearest: np.ndarray) -> float:
        """The batch's inertia under the centroids it was assigned to."""
        return float(np.sum(nearest))

    def _assign_in_order(self, epoch: Epoch) -> float:
        """Assign every row under the final centroids, in order; returns the inertia.

        A mini-batch epoch's labels are each from its own batch's centroids,
        so ``labels_``/``inertia_`` come from this pass over the final model.
        """
        norms, labels, nearest = self._rows
        inertia = 0.0
        batches = NormalizedBatchIterator(epoch.data, batch_size=epoch.batch_rows)
        for batch in Epoch(epoch.data, None, batches, epoch.n_jobs):
            rows = batch.rows
            nearest_centroids(batch.data, self.centroids_, norms[rows], labels[rows],
                              nearest[rows])
            inertia += float(np.sum(nearest[rows]))
        return inertia

    def partial_fit(self, data) -> "KMeans":
        """One incremental mini-batch update of the centroids (see :meth:`_step`).

        The per-cluster statistics accumulate across calls, starting from the
        last fit epoch's.  Centroids initialize from the seeded RNG on the
        first call, so factorized and materialized streams start identically.
        """
        data = self._partial_operand(data)
        if self.centroids_ is None:
            self.centroids_ = self._initial_centroids(data)
        n = data.shape[0]
        self._rows = (squared_row_norms(data), np.empty(n, dtype=np.intp), np.empty(n))
        try:
            self._step(Batch(data, slice(0, n)))
            self.labels_ = self._rows[1]
        finally:
            self._rows = None
        return self

    def predict(self, data) -> np.ndarray:
        """Assign new rows to the nearest learned centroid."""
        if self.centroids_ is None:
            raise RuntimeError("model is not fitted")
        data = validate_predict_data(data, self.centroids_.shape[0], "KMeans.predict")
        return nearest_centroids(data, self.centroids_, squared_row_norms(data))[0]

    def export_weights(self) -> ServingExport:
        """Export the centroids as a servable linear map.

        The weight matrix is the ``(d, k)`` centroid matrix; the offsets row
        stores the squared centroid norms, so cluster assignment is
        ``argmin(offsets - 2 * (T @ centroids))`` -- the per-row norm
        ``||t||^2`` is constant within a row and drops out of the argmin.
        """
        if self.centroids_ is None:
            raise RuntimeError("KMeans.export_weights: model is not fitted")
        norms = np.sum(self.centroids_ ** 2, axis=0, keepdims=True)
        return ServingExport("kmeans", self.centroids_, offsets=norms,
                             metadata={"num_clusters": self.num_clusters})
