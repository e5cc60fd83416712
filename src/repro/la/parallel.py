"""The fan-out executor behind sharded execution: inline, or one shared thread pool.

The paper's scalability experiments (Section 5.2.4, Tables 9 and 10) stream
row chunks through a *serial* ORE-style loop; the chunked preset of
:class:`repro.core.partitioned.Partitioned` emulates that faithfully.  This
module provides the piece that loop is missing: a :class:`ParallelExecutor`
that fans a function out over row shards and collects the partial results in
order.

Morpheus-style factorized operators are embarrassingly parallel over row
shards of the entity and indicator matrices -- every Table-1 operator either
concatenates per-shard results (LMM, ``rowSums``, element-wise ops) or sums
them (RMM, ``crossprod``, ``colSums``, ``sum``) -- so the executor only ever
needs an order-preserving ``map``.  The row-partitioned operand in
:mod:`repro.core.partitioned` builds on exactly that.

There are two pools.  :class:`SerialPool` runs every task inline on the
calling thread.  :class:`ThreadPool` runs them on one process-wide
``ThreadPoolExecutor`` of :func:`default_workers` threads, created on first
use and shared by every sharded operand, so the worker threads -- and the
CPU budget they stand for -- live in one place.  Threads are the right
choice because BLAS, ufunc loops, gathers and SciPy's sparse products
release the GIL inside their C kernels (see ``docs/parallelism.md``).
"""

from __future__ import annotations

import contextvars
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, List, Optional, Sequence, TypeVar, Union

from repro import obs

_Item = TypeVar("_Item")
_Result = TypeVar("_Result")

#: ``None`` or ``"thread"`` (the shared thread pool), or ``"serial"``.
PoolSpec = Optional[str]

_FANOUTS_TOTAL = obs.REGISTRY.counter(
    "repro_shard_fanouts_total",
    "ParallelExecutor.map fan-outs by pool kind",
    labels=("pool",),
)
_TASKS_TOTAL = obs.REGISTRY.counter(
    "repro_shard_tasks_total",
    "Per-shard tasks dispatched through ParallelExecutor.map",
    labels=("pool",),
)


def default_workers() -> int:
    """Default worker count: the machine's CPU count (at least one)."""
    return max(1, os.cpu_count() or 1)


class SerialPool:
    """Run every task inline on the calling thread.

    This is the reference the thread pool must agree with bit for bit: the
    same shard functions run and their partials are reduced in the same
    order, so results are identical regardless of pool choice.
    """

    name = "serial"

    def map(self, fn: Callable[[_Item], _Result], items: Iterable[_Item]) -> List[_Result]:
        return [fn(item) for item in items]


_shared: Optional[ThreadPoolExecutor] = None
_shared_lock = threading.Lock()
_worker = threading.local()


def _mark_worker() -> None:
    _worker.active = True


def _forget_shared() -> None:
    # A forked child inherits the executor object but none of its threads.
    global _shared
    _shared = None


os.register_at_fork(after_in_child=_forget_shared)


def _shared_executor() -> ThreadPoolExecutor:
    """The process-wide worker pool, built on first use."""
    global _shared
    with _shared_lock:
        if _shared is None:
            _shared = ThreadPoolExecutor(max_workers=default_workers(),
                                         thread_name_prefix="repro-shard",
                                         initializer=_mark_worker)
        return _shared


class ThreadPool:
    """Run tasks on the shared process-wide thread pool (the default).

    Threads share the shard operands by reference (no pickling) and the
    NumPy / SciPy kernels the shards run release the GIL, so this pool
    parallelizes LA-bound shard work at a few microseconds per task.  A
    fan-out started inside one of the pool's own workers (a sharded operator
    inside a ``row_apply`` function, say) runs inline: queueing it behind its
    own caller would deadlock once every worker waits on a nested fan-out.
    """

    name = "thread"

    @property
    def max_workers(self) -> int:
        return default_workers()

    def map(self, fn: Callable[[_Item], _Result], items: Iterable[_Item]) -> List[_Result]:
        if getattr(_worker, "active", False):
            return [fn(item) for item in items]
        return list(_shared_executor().map(fn, items))


def resolve_pool(pool: PoolSpec = None) -> Union[SerialPool, ThreadPool]:
    """``None`` or ``"thread"``: the shared :class:`ThreadPool`; ``"serial"``: inline.

    Any other value raises ``ValueError``.
    """
    if pool is None or pool == "thread":
        return ThreadPool()
    if pool == "serial":
        return SerialPool()
    raise ValueError(f"unknown pool {pool!r}; expected None, 'serial' or 'thread'")


class ParallelExecutor:
    """Fans shard-local work out across a pool, returning the partials in order.

    This is the one seam every sharded operand type shares: hand it a shard
    function and a list of per-shard argument tuples; get the ordered
    partial results back, ready for a concatenating or summing reduction.
    A single-item fan-out skips the pool entirely -- one shard is serial by
    construction, which also makes ``n_shards=1`` bit-for-bit identical to
    unsharded execution.
    """

    def __init__(self, pool: PoolSpec = None):
        self.pool = resolve_pool(pool)

    def map(self, fn: Callable[[_Item], _Result], items: Sequence[_Item]) -> List[_Result]:
        """Apply *fn* to every item through the pool, preserving order."""
        items = list(items)
        if len(items) <= 1:
            return [fn(item) for item in items]
        if obs.enabled():
            _FANOUTS_TOTAL.labels(pool=self.pool.name).inc()
            _TASKS_TOTAL.labels(pool=self.pool.name).inc(len(items))
            if obs.current_span() is not None and self.pool.name == "thread":
                # Carry the active span into the worker threads so shard-local
                # work nests under the caller's span.  Each task runs in its
                # own copy of the captured context (a Context object cannot be
                # entered concurrently).
                with obs.span("shard.map", pool=self.pool.name, tasks=len(items)):
                    ctx = contextvars.copy_context()
                    return self.pool.map(
                        lambda item: ctx.copy().run(fn, item), items
                    )
        return self.pool.map(fn, items)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ParallelExecutor(pool={self.pool.name})"
