"""Backend abstraction over concrete LA execution engines.

The paper's central architectural claim is *closure*: because Morpheus only
rewrites LA expressions into other LA expressions, it can run unchanged on any
system that exposes the basic operator set -- standalone R, Oracle R
Enterprise, SystemML, NumPy, and so on.  This module captures that idea as a
small :class:`Backend` interface with three implementations:

* :class:`DenseBackend` -- plain NumPy arrays (the analogue of standalone R
  with dense matrices).
* :class:`SparseBackend` -- SciPy CSR matrices (the analogue of R's ``Matrix``
  package used for the real sparse datasets).
* :class:`ChunkedBackend` -- the out-of-core, row-partitioned execution model
  of Oracle R Enterprise's ``ore.rowapply`` (the chunked preset of
  :class:`repro.core.partitioned.Partitioned`), used by the Table 9 /
  Table 10 scalability experiments.
* :class:`ShardedBackend` -- the same row partitioning mapped over a worker
  pool (the sharded preset).

The ML algorithms and rewrite rules never import a backend directly; they only
use the primitives from :mod:`repro.la.ops`, which operate on whatever operand
type a backend hands them.  Backends are used by the data generators and the
benchmark harness to decide how base-table matrices are *stored*.
"""

from __future__ import annotations

import abc
from typing import Optional

import numpy as np
import scipy.sparse as sp

from repro.exceptions import NotSupportedError
from repro.la.types import MatrixLike, to_dense, to_sparse


class Backend(abc.ABC):
    """Strategy object deciding how base-table matrices are materialized."""

    #: short identifier used in benchmark reports
    name: str = "abstract"
    #: capability metadata describing the execution family (reports and
    #: planner-adjacent tooling; the planner itself prices dispatch fan-out
    #: through :meth:`partitions_for`) -----------------------------------------
    #: whether sparse inputs keep a sparse representation in this storage
    preserves_sparsity: bool = False
    #: whether Table-1 operators fan out over parallel workers
    parallel: bool = False
    #: whether the storage is row-partitioned for out-of-core execution
    out_of_core: bool = False

    @abc.abstractmethod
    def from_dense(self, array: np.ndarray) -> MatrixLike:
        """Wrap a dense array in this backend's preferred storage."""

    @abc.abstractmethod
    def from_sparse(self, matrix: sp.spmatrix) -> MatrixLike:
        """Wrap a sparse matrix in this backend's preferred storage."""

    def zeros(self, shape: tuple) -> MatrixLike:
        """Return an all-zero matrix of the given shape in backend storage."""
        return self.from_dense(np.zeros(shape))

    def describe(self) -> str:
        """Human-readable one-line description used by benchmark reports."""
        return f"{self.name} backend"

    def partitions_for(self, n_rows: int) -> int:
        """How many row partitions an *n_rows* matrix splits into (1 = monolithic).

        The planner multiplies every primitive call by this fan-out when
        pricing dispatch overhead.
        """
        return 1

    def capabilities(self) -> dict:
        """Planner-facing capability metadata for this backend instance."""
        return {
            "name": self.name,
            "preserves_sparsity": self.preserves_sparsity,
            "parallel": self.parallel,
            "out_of_core": self.out_of_core,
        }


class DenseBackend(Backend):
    """Store every matrix as a dense ``numpy.ndarray``."""

    name = "dense"

    def from_dense(self, array: np.ndarray) -> np.ndarray:
        return np.ascontiguousarray(np.asarray(array, dtype=np.float64))

    def from_sparse(self, matrix: sp.spmatrix) -> np.ndarray:
        return to_dense(matrix).astype(np.float64)


class SparseBackend(Backend):
    """Store every matrix as a SciPy CSR matrix."""

    name = "sparse"
    preserves_sparsity = True

    def from_dense(self, array: np.ndarray) -> sp.csr_matrix:
        return sp.csr_matrix(np.asarray(array, dtype=np.float64))

    def from_sparse(self, matrix: sp.spmatrix) -> sp.csr_matrix:
        return to_sparse(matrix, "csr").astype(np.float64)


class ChunkedBackend(Backend):
    """Store matrices row-partitioned, emulating ORE's ``ore.rowapply``.

    Parameters
    ----------
    chunk_rows:
        Maximum number of rows per chunk.  Small values exercise the
        out-of-core code path aggressively; the scalability benchmarks use a
        few thousand rows per chunk.
    """

    name = "chunked"
    preserves_sparsity = True
    out_of_core = True

    def __init__(self, chunk_rows: int = 4096):
        if chunk_rows <= 0:
            raise ValueError("chunk_rows must be positive")
        self.chunk_rows = int(chunk_rows)

    def partitions_for(self, n_rows: int) -> int:
        return max(1, -(-int(n_rows) // self.chunk_rows))

    def from_dense(self, array: np.ndarray):
        from repro.core.partitioned import Partitioned

        return Partitioned.chunked(np.asarray(array, dtype=np.float64), self.chunk_rows)

    def from_sparse(self, matrix: sp.spmatrix):
        from repro.core.partitioned import Partitioned

        return Partitioned.chunked(to_sparse(matrix, "csr").astype(np.float64), self.chunk_rows)

    def describe(self) -> str:
        return f"chunked backend (chunk_rows={self.chunk_rows})"


class ShardedBackend(Backend):
    """Store matrices row-sharded with a worker pool (parallel execution).

    The parallel counterpart of :class:`ChunkedBackend`: matrices become
    sharded :class:`~repro.core.partitioned.Partitioned` operands whose
    Table-1 operators fan out over the configured pool (see
    :mod:`repro.la.parallel`).

    Parameters
    ----------
    n_shards:
        Number of balanced row shards per matrix (clamped to the row count).
    pool:
        Pool specification passed through to
        :func:`repro.la.parallel.resolve_pool`; ``None`` selects a thread
        pool sized to the shard count.
    """

    name = "sharded"
    preserves_sparsity = True
    parallel = True

    def __init__(self, n_shards: int = 4, pool=None):
        if n_shards <= 0:
            raise ValueError("n_shards must be positive")
        self.n_shards = int(n_shards)
        self.pool = pool

    def partitions_for(self, n_rows: int) -> int:
        return min(self.n_shards, max(1, int(n_rows)))

    def from_dense(self, array: np.ndarray):
        from repro.core.partitioned import Partitioned

        return Partitioned.sharded(
            np.asarray(array, dtype=np.float64), self.n_shards, pool=self.pool
        )

    def from_sparse(self, matrix: sp.spmatrix):
        from repro.core.partitioned import Partitioned

        return Partitioned.sharded(
            to_sparse(matrix, "csr").astype(np.float64), self.n_shards, pool=self.pool
        )

    def describe(self) -> str:
        return f"sharded backend (n_shards={self.n_shards})"


_REGISTRY = {
    "dense": DenseBackend,
    "sparse": SparseBackend,
    "chunked": ChunkedBackend,
    "sharded": ShardedBackend,
}


def get_backend(name: str, chunk_rows: Optional[int] = None,
                n_shards: Optional[int] = None) -> Backend:
    """Look up a backend by name (``dense``, ``sparse``, ``chunked`` or ``sharded``)."""
    key = name.lower()
    if key not in _REGISTRY:
        raise NotSupportedError(f"unknown backend {name!r}; expected one of {sorted(_REGISTRY)}")
    if key == "chunked":
        return ChunkedBackend() if chunk_rows is None else ChunkedBackend(chunk_rows)
    if key == "sharded":
        return ShardedBackend() if n_shards is None else ShardedBackend(n_shards)
    return _REGISTRY[key]()


def backend_capabilities() -> dict:
    """Capability metadata for every registered backend (default parameters).

    Describes the execution families the planner chooses among; the
    auto-planner benchmark embeds it in its results artifact so a plan JSON
    is self-describing.  (The planner itself prices dispatch fan-out through
    :meth:`Backend.partitions_for`.)
    """
    return {name: get_backend(name).capabilities() for name in _REGISTRY}
