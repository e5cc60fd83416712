"""The shared shard pool: one set of worker threads, no nested deadlock, failures contained.

Every thread-sharded operand fans out over one process-wide thread pool of
``default_workers()`` threads.  Refits over ``apply_delta`` successors and
sharded mini-batch fits therefore start no threads beyond that pool's; a
fan-out from inside a pool worker runs inline instead of queueing behind its
own caller; and a shard task that raises surfaces its own exception while
the pool and the matrix's memoized shard view stay usable.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core import partitioned
from repro.core.delta import MatrixDelta
from repro.core.normalized_matrix import NormalizedMatrix
from repro.datasets.synthetic import SyntheticPKFKConfig, generate_pk_fk
from repro.la import parallel
from repro.la.parallel import default_workers
from repro.ml import LinearRegressionGD, LogisticRegressionGD
from repro.ml.base import shard_for_jobs


class _ShardFailure(Exception):
    """Raised by one shard task; must reach the caller as itself."""


@pytest.fixture
def thread_starts(monkeypatch):
    """A list that records every ``threading.Thread.start`` call."""
    started = []
    original = threading.Thread.start

    def counting(thread):
        started.append(thread.name)
        return original(thread)

    monkeypatch.setattr(threading.Thread, "start", counting)
    return started


class TestThreadStarts:
    def test_delta_refits_and_sgd_fit_start_at_most_default_workers_threads(self, thread_starts):
        rng = np.random.default_rng(7)
        data = generate_pk_fk(SyntheticPKFKConfig(600, 3, [40], [4], seed=7))
        matrix, y = data.normalized, data.target
        for _ in range(20):
            attribute = matrix.attributes[0]
            rows = rng.choice(attribute.shape[0], size=3, replace=False)
            delta = MatrixDelta.upsert(rows, rng.standard_normal((3, attribute.shape[1])),
                                       attribute)
            matrix = matrix.apply_delta(0, delta)
            LinearRegressionGD(max_iter=2, n_jobs=2).fit(matrix, y)

        big = generate_pk_fk(SyntheticPKFKConfig(40_000, 3, [200], [4], seed=8))
        labels = (big.target > np.median(big.target)).astype(np.float64)
        LogisticRegressionGD(max_iter=5, solver="sgd", batch_size=1000, shuffle=True,
                             n_jobs=2).fit(big.normalized, labels)
        assert len(thread_starts) <= default_workers(), thread_starts


class TestConcurrentCallers:
    def test_concurrent_first_use_builds_one_pool(self, monkeypatch, thread_starts):
        # More caller threads than cores race to build the pool; a second
        # pool would start a second set of workers.
        monkeypatch.setattr(parallel, "_shared", None)
        matrix = generate_pk_fk(SyntheticPKFKConfig(300, 3, [20], [4], seed=9)).normalized
        x = np.random.default_rng(9).standard_normal((matrix.shape[1], 2))
        expected = (matrix.shard(3, pool="serial") @ x).to_dense()
        callers = 4 * default_workers()
        barrier = threading.Barrier(callers)
        results = [None] * callers

        def call(i):
            view = matrix.shard(3)
            barrier.wait()
            results[i] = (view @ x).to_dense()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=call, args=(i,)) for i in range(callers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert all(np.array_equal(result, expected) for result in results)
        workers = [name for name in thread_starts if name.startswith("repro-shard")]
        assert 0 < len(workers) <= default_workers(), workers


_NESTED_FANOUT = """
    import numpy as np
    from repro.datasets.synthetic import SyntheticPKFKConfig, generate_pk_fk
    from repro.la.parallel import default_workers

    matrix = generate_pk_fk(SyntheticPKFKConfig(500, 3, [30, 12], [4, 2], seed=3)).normalized
    x = np.random.default_rng(3).standard_normal((matrix.shape[1], 2))
    outer_shards = 2 * default_workers() + 1  # more outer tasks than workers

    def inner(piece):
        return (piece.shard(2) @ x).to_dense()  # a sharded LMM inside a pool worker

    nested = np.vstack(matrix.shard(outer_shards, pool="thread").row_apply(inner))
    serial = np.vstack(matrix.shard(outer_shards, pool="serial").row_apply(inner))
    assert np.array_equal(nested, serial)
    assert np.allclose(nested, matrix.to_dense() @ x)
    print("nested fan-out ok")
"""


_FORKED_CHILD = """
    import os, signal
    import numpy as np
    from repro.core.partitioned import Partitioned

    matrix = np.arange(40.0).reshape(20, 2)
    for _ in range(50):  # leaves the pool's workers idle, as after any fit
        Partitioned.sharded(matrix, 2).colsums()
    pid = os.fork()
    if pid == 0:
        signal.alarm(30)
        total = Partitioned.sharded(matrix, 2).colsums()
        os._exit(0 if np.array_equal(total, matrix.sum(axis=0, keepdims=True)) else 1)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0, status
    print("forked child ok")
"""


def _run_script(script: str) -> str:
    """Run *script* in a fresh interpreter: a deadlock there is a timeout
    rather than a hung suite (the shared pool's workers are joined at exit)."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(script)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


class TestNestedFanOut:
    def test_sharded_lmm_inside_thread_row_apply_runs_inline(self):
        assert "nested fan-out ok" in _run_script(_NESTED_FANOUT)


class TestFork:
    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_gets_a_fresh_pool(self):
        # The child inherits the executor object but none of its threads.
        assert "forked child ok" in _run_script(_FORKED_CHILD)


class TestTaskFailure:
    def test_shard_task_error_surfaces_and_pool_survives(self, monkeypatch):
        data = generate_pk_fk(SyntheticPKFKConfig(400, 3, [25], [4], seed=5))
        matrix, y = data.normalized, data.target
        x = np.random.default_rng(5).standard_normal((matrix.shape[1], 2))
        serial_fit = LinearRegressionGD(max_iter=3, n_jobs=1).fit(matrix, y)

        def boom(piece):
            raise _ShardFailure("shard task failed")

        sharded = matrix.shard(3, pool="thread")
        with pytest.raises(_ShardFailure):
            sharded.apply(boom)
        with pytest.raises(_ShardFailure):
            sharded.row_apply(boom)

        # A sharded fit whose second shard's LMM task raises.
        view = shard_for_jobs(matrix, 2)
        lmm = partitioned._lmm

        def failing_lmm(args):
            if args[0] is view.pieces[1]:
                raise _ShardFailure("second shard")
            return lmm(args)

        monkeypatch.setattr(partitioned, "_lmm", failing_lmm)
        with pytest.raises(_ShardFailure, match="second shard"):
            LinearRegressionGD(max_iter=3, n_jobs=2).fit(matrix, y)
        monkeypatch.setattr(partitioned, "_lmm", lmm)

        # The shared pool still runs the next fan-out ...
        assert np.array_equal((sharded @ x).to_dense(),
                              (matrix.shard(3, pool="serial") @ x).to_dense())
        # ... and the memoized shard view still fits.
        assert shard_for_jobs(matrix, 2) is view
        refit = LinearRegressionGD(max_iter=3, n_jobs=2).fit(matrix, y)
        fresh = NormalizedMatrix(matrix.entity, matrix.indicators, matrix.attributes)
        assert np.array_equal(refit.coef_,
                              LinearRegressionGD(max_iter=3, n_jobs=2).fit(fresh, y).coef_)
        assert np.allclose(refit.coef_, serial_fit.coef_, atol=1e-10)
