"""The online scoring front end: micro-batching, hot-entity cache, stats.

:class:`ScoringService` wraps a :class:`~repro.serve.scorer.FactorizedScorer`
with the two mechanics an online endpoint needs on top of the raw math:

* **Micro-batching** -- a stream of point requests is chunked into
  ``max_batch_size`` micro-batches, so the per-request cost is one gather
  row inside a vectorized batch instead of a full NumPy dispatch.  This is
  where the serving win over per-request materialized scoring comes from
  (see ``benchmarks/bench_serving.py``).
* **An LRU cache for hot entities** -- point lookups by entity row
  (:meth:`score_row`) are cached by ``(snapshot version, row)``, so a skewed
  request distribution is served mostly from the cache, and a snapshot swap
  (``update_table``) invalidates stale entries *implicitly*: the version in
  the key changes, and old entries age out of the LRU.

The service is thread-safe: the cache is guarded by a lock, and scoring
itself reads one immutable snapshot per call (see
:mod:`repro.serve.snapshot`), so concurrent readers never block writers.
"""

from __future__ import annotations

import threading
import time
import types
from collections import OrderedDict
from typing import Iterable, Mapping

import numpy as np

from repro import obs
from repro.exceptions import ServingError, ShapeError
from repro.ml.export import apply_head
from repro.serve.scorer import FactorizedScorer

_REQUESTS_TOTAL = obs.REGISTRY.counter(
    "repro_serve_requests_total",
    "Scoring requests (rows) served, by entry path",
    labels=("path",),
)
_REQUEST_SECONDS = obs.REGISTRY.histogram(
    "repro_serve_request_seconds",
    "End-to-end latency of point requests (score_row)",
)
_BATCH_SECONDS = obs.REGISTRY.histogram(
    "repro_serve_batch_seconds",
    "End-to-end latency of batch entry points (all micro-batches)",
)
_LRU_EVENTS = obs.REGISTRY.counter(
    "repro_serve_lru_events_total",
    "Hot-entity LRU cache events across all services",
    labels=("event",),
)
_TOPK_BLOCKS = obs.REGISTRY.counter(
    "repro_serve_topk_blocks_total",
    "Zone-map blocks examined by top-k requests, by outcome",
    labels=("outcome",),
)
_TOPK_ROWS_SCORED = obs.REGISTRY.counter(
    "repro_serve_topk_rows_scored_total",
    "Rows exactly scored by top-k requests",
)


class ScoringService:
    """Serve point and batch scoring requests for one bound scorer.

    Parameters
    ----------
    scorer:
        The bound :class:`FactorizedScorer` (build it from a model or load
        it from a :class:`~repro.serve.registry.ModelRegistry`).
    max_batch_size:
        Micro-batch size for the batch entry points; batches larger than
        this are chunked.
    cache_size:
        Capacity of the hot-entity LRU (``0`` disables caching).
    """

    def __init__(self, scorer: FactorizedScorer, max_batch_size: int = 256,
                 cache_size: int = 4096):
        if max_batch_size < 1:
            raise ServingError("max_batch_size must be at least 1")
        if cache_size < 0:
            raise ServingError("cache_size must be non-negative")
        self.scorer = scorer
        self.max_batch_size = int(max_batch_size)
        self.cache_size = int(cache_size)
        self._cache: "OrderedDict[tuple, np.ndarray]" = OrderedDict()
        self._lock = threading.Lock()
        # Per-instance series (always=True: stats() predates the obs layer
        # and must keep counting with observability off); the gated global
        # families above aggregate across services for the exporters.
        self._requests = obs.Counter(always=True)
        self._micro_batches = obs.Counter(always=True)
        self._cache_hits = obs.Counter(always=True)
        self._cache_misses = obs.Counter(always=True)
        self._topk_requests = obs.Counter(always=True)
        self._topk_blocks_visited = obs.Counter(always=True)
        self._topk_blocks_skipped = obs.Counter(always=True)
        self._topk_rows_scored = obs.Counter(always=True)

    # -- point path (LRU-cached) ---------------------------------------------------

    def score_row(self, row: int) -> np.ndarray:
        """Raw scores of one entity row as a ``(m,)`` vector (cached)."""
        row = int(row)
        # One snapshot pin serves both the cache key and the scoring call.
        # Reading the version and scoring separately would race a concurrent
        # update_table/apply_delta swap between the two: a post-swap score
        # cached under the pre-swap version key hands version v+1 data to
        # readers still on version v, breaking the one-consistent-snapshot
        # guarantee.
        record = obs.enabled()
        started = time.perf_counter() if record else 0.0
        snapshot = self.scorer.current_snapshot()
        key = (snapshot.version, row)
        with self._lock:
            self._requests.inc()
            cached = self._cache.get(key)
            if cached is not None:
                self._cache.move_to_end(key)
                self._cache_hits.inc()
            else:
                self._cache_misses.inc()
        if cached is not None:
            if record:
                _REQUESTS_TOTAL.labels(path="point").inc()
                _LRU_EVENTS.labels(event="hit").inc()
                _REQUEST_SECONDS.observe(time.perf_counter() - started)
            return cached
        scores = self.scorer.score_rows([row], snapshot=snapshot)[0]
        scores.setflags(write=False)
        if self.cache_size:
            with self._lock:
                self._cache[key] = scores
                self._cache.move_to_end(key)
                while len(self._cache) > self.cache_size:
                    self._cache.popitem(last=False)
        if record:
            _REQUESTS_TOTAL.labels(path="point").inc()
            _LRU_EVENTS.labels(event="miss").inc()
            _REQUEST_SECONDS.observe(time.perf_counter() - started)
        return scores

    def predict_row(self, row: int) -> np.ndarray:
        """Prediction head over :meth:`score_row` (shares its cache)."""
        return apply_head(self.scorer.export,
                          self.score_row(row).reshape(1, -1), "predict")[0]

    # -- batch path (micro-batched) -------------------------------------------------

    def score_rows(self, rows: Iterable[int]) -> np.ndarray:
        """Raw scores for many entity rows, chunked into micro-batches."""
        return self._batched_rows(rows, "score")

    def predict_rows(self, rows: Iterable[int]) -> np.ndarray:
        """Predictions for many entity rows, chunked into micro-batches."""
        return self._batched_rows(rows, "predict")

    def predict_proba_rows(self, rows: Iterable[int]) -> np.ndarray:
        """Probabilities for many entity rows (logistic models only)."""
        return self._batched_rows(rows, "predict_proba")

    def score(self, features=None, keys=None) -> np.ndarray:
        """Raw scores for ad-hoc feature+key requests, micro-batched."""
        return self._batched_requests(features, keys, "score")

    def predict(self, features=None, keys=None) -> np.ndarray:
        """Predictions for ad-hoc feature+key requests, micro-batched."""
        return self._batched_requests(features, keys, "predict")

    def predict_proba(self, features=None, keys=None) -> np.ndarray:
        """Probabilities for ad-hoc requests (logistic models only)."""
        return self._batched_requests(features, keys, "predict_proba")

    def _batched_rows(self, rows, head: str) -> np.ndarray:
        from repro.la.types import normalize_row_indices

        # Resolve masks/validation up front: a boolean mask must not be
        # chunked (each piece would fail the scorer's length check), and the
        # request stat should count selected rows, not mask length.
        indices = normalize_row_indices(
            list(rows) if not isinstance(rows, np.ndarray) else rows,
            self.scorer.n_rows,
        )
        if indices.shape[0] == 0:
            # Route through the scorer so the empty result keeps the head's
            # shape/dtype (e.g. 1-D int labels for K-Means, not (0, k) floats).
            raw = self.scorer.score_rows(indices)
            return apply_head(self.scorer.export, raw, head) if head != "score" else raw
        record = obs.enabled()
        started = time.perf_counter() if record else 0.0
        # One snapshot for the whole service call: a batch split into
        # micro-batches must not straddle a concurrent update_table swap.
        snapshot = self.scorer.current_snapshot()
        chunks = []
        for start in range(0, indices.shape[0], self.max_batch_size):
            chunk = indices[start:start + self.max_batch_size]
            raw = self.scorer.score_rows(chunk, snapshot=snapshot)
            chunks.append(apply_head(self.scorer.export, raw, head)
                          if head != "score" else raw)
            with self._lock:
                self._requests.inc(int(chunk.shape[0]))
                self._micro_batches.inc()
        if record:
            _REQUESTS_TOTAL.labels(path="batch").inc(int(indices.shape[0]))
            _BATCH_SECONDS.observe(time.perf_counter() - started)
        return np.concatenate(chunks, axis=0)

    def _batched_requests(self, features, keys, head: str) -> np.ndarray:
        n = None
        if keys is not None:
            # Shared flat-vector disambiguation (see scorer.normalize_keys);
            # it must happen before chunking.
            keys = self.scorer.normalize_keys(keys)
            n = keys.shape[0]
        if features is not None:
            if not hasattr(features, "shape"):
                try:
                    features = np.asarray(features, dtype=np.float64)
                except (TypeError, ValueError) as exc:
                    raise ShapeError(
                        f"ScoringService.score: features are not matrix-like ({exc})"
                    ) from exc
            from repro.la.types import is_sparse

            if is_sparse(features):
                # COO/DIA/BSR matrices accept @ but not row slicing; chunking
                # needs a sliceable format.
                features = features.tocsr()
            if getattr(features, "ndim", 2) == 1:
                features = features.reshape(1, -1)
            if n is not None and features.shape[0] != n:
                # Chunking would silently truncate to the shorter side; the
                # scorer rejects the mismatch, so the front end must too.
                raise ServingError(
                    f"got {features.shape[0]} feature rows but {n} key rows"
                )
            n = features.shape[0]
        if n is None:
            raise ServingError("pass features and/or keys to score")
        if n == 0:
            raw = self.scorer.score(features, keys)
            return apply_head(self.scorer.export, raw, head) if head != "score" else raw
        record = obs.enabled()
        started = time.perf_counter() if record else 0.0
        snapshot = self.scorer.current_snapshot()
        chunks = []
        for start in range(0, n, self.max_batch_size):
            stop = min(start + self.max_batch_size, n)
            chunk_features = features[start:stop] if features is not None else None
            chunk_keys = keys[start:stop] if keys is not None else None
            raw = self.scorer.score(chunk_features, chunk_keys, snapshot=snapshot)
            chunks.append(apply_head(self.scorer.export, raw, head)
                          if head != "score" else raw)
            with self._lock:
                self._requests.inc(stop - start)
                self._micro_batches.inc()
        if record:
            _REQUESTS_TOTAL.labels(path="adhoc").inc(n)
            _BATCH_SECONDS.observe(time.perf_counter() - started)
        return np.concatenate(chunks, axis=0)

    # -- top-k (bound-pruned) --------------------------------------------------------

    def top_k(self, k: int, largest: bool = True, output: int = 0):
        """The k best entity rows via the scorer's bound-pruned search.

        Snapshot-pinned like every other entry point (the scorer reads one
        snapshot for bounds and exact scoring alike) and stats-counted: the
        service accumulates blocks visited vs skipped and rows scored, so an
        operator can see how much of the data the top-k traffic actually
        touches (see :meth:`stats`).
        """
        result = self.scorer.top_k(k, largest=largest, output=output)
        visited = result.stats.get("blocks_visited", 0)
        skipped = result.stats.get("blocks_skipped", 0)
        rows_scored = result.stats.get("rows_scored", 0)
        with self._lock:
            self._requests.inc()
            self._topk_requests.inc()
            self._topk_blocks_visited.inc(visited)
            self._topk_blocks_skipped.inc(skipped)
            self._topk_rows_scored.inc(rows_scored)
        if obs.enabled():
            _REQUESTS_TOTAL.labels(path="topk").inc()
            if visited:
                _TOPK_BLOCKS.labels(outcome="visited").inc(visited)
            if skipped:
                _TOPK_BLOCKS.labels(outcome="skipped").inc(skipped)
            if rows_scored:
                _TOPK_ROWS_SCORED.inc(rows_scored)
        return result

    # -- freshness + introspection ---------------------------------------------------

    def update_table(self, table, new_attribute, wait: bool = True):
        """Swap in a fresh attribute table (see ``FactorizedScorer.update_table``).

        Cached point scores stay valid: they are keyed by snapshot version,
        so the swap makes them unreachable and the LRU ages them out.
        """
        return self.scorer.update_table(table, new_attribute, wait=wait)

    def apply_delta(self, table, delta, wait: bool = True):
        """Patch one table's partial from a row delta (see ``FactorizedScorer.apply_delta``).

        Same cache story as :meth:`update_table`: the swap bumps the snapshot
        version, so stale cached point scores become unreachable.
        """
        return self.scorer.apply_delta(table, delta, wait=wait)

    def stats(self) -> Mapping[str, int]:
        """An immutable point-in-time snapshot of the service counters.

        The snapshot is built under the service lock (no torn reads of
        mid-batch state) and returned as a read-only mapping: mutating it
        raises ``TypeError`` and can never corrupt the live counters.
        """
        with self._lock:
            return types.MappingProxyType({
                "requests": int(self._requests.value),
                "micro_batches": int(self._micro_batches.value),
                "cache_hits": int(self._cache_hits.value),
                "cache_misses": int(self._cache_misses.value),
                "cache_entries": len(self._cache),
                "snapshot_version": self.scorer.version,
                "topk_requests": int(self._topk_requests.value),
                "topk_blocks_visited": int(self._topk_blocks_visited.value),
                "topk_blocks_skipped": int(self._topk_blocks_skipped.value),
                "topk_rows_scored": int(self._topk_rows_scored.value),
            })

    def close(self) -> None:
        """Release the scorer's background worker."""
        self.scorer.close()
