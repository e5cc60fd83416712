"""Shared infrastructure for the LA-based ML algorithms.

All estimators follow a small scikit-learn-flavoured convention: ``fit(T, ...)``
trains in place and returns ``self``; learned state lives in attributes with a
trailing underscore; ``max_iter`` bounds the number of LA passes so that the
benchmark harness can compare factorized and materialized runs iteration for
iteration.
"""

from __future__ import annotations

import abc
import functools
import time
from typing import Iterator, List, Optional

import numpy as np

from repro import obs
from repro.core.planner.memory import validate_memory_budget
from repro.core.stream import Batch, NormalizedBatchIterator
from repro.exceptions import ShapeError

_FITS_TOTAL = obs.REGISTRY.counter(
    "repro_ml_fits_total",
    "Completed fits, by estimator, engine setting and solver",
    labels=("estimator", "engine", "solver"),
)
_FIT_SECONDS = obs.REGISTRY.histogram(
    "repro_ml_fit_seconds",
    "Wall-clock duration of completed fits",
    labels=("estimator",),
    buckets=(0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
             30.0, 60.0),
)


def fit_telemetry(fn):
    """Instrument a concrete ``fit``: span, duration metrics, plan feedback.

    Applied to every estimator's ``fit``.  Whatever the observability state,
    an ``engine="auto"`` fit gets its measured runtime recorded against the
    chosen plan's prediction (``plan_.outcome`` /
    :func:`repro.core.planner.feedback.record_outcome` -- two clock reads,
    negligible next to a fit).  With observability enabled the fit also runs
    inside a ``<Estimator>.fit`` span and lands in the fit metrics.
    """

    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        started = time.perf_counter()
        if not obs.enabled():
            result = fn(self, *args, **kwargs)
            plan = getattr(self, "plan_", None)
            if plan is not None:
                plan.record_outcome(time.perf_counter() - started)
            return result
        estimator = type(self).__name__
        engine = getattr(self, "engine", "eager")
        solver = getattr(self, "solver", "batch")
        with obs.span(f"{estimator}.fit", engine=engine, solver=solver) as sp:
            result = fn(self, *args, **kwargs)
            elapsed = time.perf_counter() - started
            plan = getattr(self, "plan_", None)
            if plan is not None:
                outcome = plan.record_outcome(elapsed)
                sp.set(plan=plan.chosen.label,
                       predicted_seconds=outcome.predicted_seconds,
                       measured_seconds=outcome.measured_seconds)
            _FITS_TOTAL.labels(estimator=estimator, engine=str(engine),
                               solver=str(solver)).inc()
            _FIT_SECONDS.labels(estimator=estimator).observe(elapsed)
        return result

    return wrapper


class IterativeEstimator(abc.ABC):
    """Base class for gradient-style iterative estimators.

    Parameters
    ----------
    max_iter:
        Number of iterations (LA passes over the data matrix).
    step_size:
        Learning rate ``alpha`` where applicable.
    seed:
        Seed for any random initialization, so factorized and materialized
        runs start from identical states and can be compared exactly.
    track_history:
        When true, per-iteration diagnostics (loss, objective) are appended to
        ``history_``; tracking costs extra LA passes, so benchmarks turn it off.
    engine:
        ``"eager"`` (default) executes each LA operator immediately, exactly
        as the paper's pseudo-code does.  ``"auto"`` asks the cost-based
        planner (:mod:`repro.core.planner`) to choose: it scores materialized
        vs. factorized layout and shard counts (and, for GD linear
        regression, the eager loop vs. the co-factor form that computes
        ``crossprod(T)`` and ``T^T Y`` once) against this estimator's Table-1
        operator footprint and dispatches the fit accordingly; the chosen
        :class:`~repro.core.planner.plan.Plan` is exposed as ``plan_`` after
        the fit.  Any explicit ``n_jobs`` -- even ``1`` -- pins the shard
        axis and leaves the planner the remaining choices; the default
        ``None`` leaves it free.
    n_jobs:
        Number of row shards the data matrix is split into for parallel
        execution of the per-iteration LA passes (``-1`` uses the CPU
        count).  The default ``None`` behaves like serial execution except
        under ``engine="auto"``, where it leaves the shard axis free for the
        planner; any explicit value -- including ``1`` -- pins it (so
        ``n_jobs=1`` guarantees serial execution everywhere).  With an
        effective shard count above one the fit wraps the data in the sharded
        preset of :class:`~repro.core.partitioned.Partitioned` --
        normalized matrices via their ``.shard()`` method (keeping every
        shard factorized), plain dense/sparse matrices via
        ``Partitioned.sharded`` -- and the same estimator code runs unchanged
        over the shards.
    solver:
        How each of the ``max_iter`` epochs batches the rows: every fit runs
        one training loop, ``max_iter`` epochs of the estimator's one update
        step, one step per batch.  ``"batch"`` (default) makes an epoch one
        in-order batch covering every row, so a full-batch fit is the
        one-batch epoch and each epoch is one LA pass over the whole data
        matrix.  ``"sgd"`` cuts each epoch into mini-batches by a
        :class:`~repro.core.stream.NormalizedBatchIterator`.  On a
        normalized matrix every batch is a factorized ``take_rows`` slice
        (attribute tables shared across all batches), so mini-batch training
        never materializes the join.  ``"sgd"`` with ``batch_size >= n_rows``
        and ``shuffle=False`` is the same one-batch epoch, so it learns
        exactly what ``"batch"`` learns.  Composes with ``n_jobs``: the
        one-batch epoch is sharded once per fit, a mini-batch epoch each batch.
    batch_size:
        Rows per mini-batch for ``solver="sgd"`` (ignored by ``"batch"``).
        ``None`` derives it from ``memory_budget`` when set, else uses one
        full-size batch.
    shuffle:
        Reshuffle the rows each mini-batch epoch (seeded by ``seed``).
    memory_budget:
        Optional per-pass working-set budget in bytes.  ``solver="sgd"``
        derives the batch size from it (via the planner's memory model), and
        ``engine="auto"`` hands it to the :class:`~repro.core.planner.Planner`
        as the memory dimension -- when the materialized (or even the
        full-pass factorized) footprint exceeds the budget, the planner
        returns a streamed plan, which changes where the rows are held,
        never what is learned (see :meth:`_resolve_engine`).
    """

    ENGINES = ("eager", "auto")
    SOLVERS = ("batch", "sgd")
    #: the learned attribute whose first axis is the feature count.
    _WEIGHTS = "coef_"

    def __init__(self, max_iter: int = 20, step_size: float = 1e-3,
                 seed: Optional[int] = 0, track_history: bool = False,
                 engine: str = "eager", n_jobs: Optional[int] = None,
                 solver: str = "batch", batch_size: Optional[int] = None,
                 shuffle: bool = False, memory_budget: Optional[float] = None):
        if max_iter <= 0:
            raise ValueError("max_iter must be positive")
        if step_size <= 0:
            raise ValueError("step_size must be positive")
        if engine not in self.ENGINES:
            raise ValueError(f"engine must be one of {self.ENGINES}, got {engine!r}")
        if solver not in self.SOLVERS:
            raise ValueError(f"solver must be one of {self.SOLVERS}, got {solver!r}")
        if batch_size is not None and int(batch_size) < 1:
            raise ValueError("batch_size must be at least 1")
        self.max_iter = int(max_iter)
        self.step_size = float(step_size)
        self.seed = seed
        self.track_history = bool(track_history)
        self.engine = engine
        self.solver = solver
        self.batch_size = None if batch_size is None else int(batch_size)
        self.shuffle = bool(shuffle)
        self.memory_budget = validate_memory_budget(memory_budget)
        #: explicit n_jobs pins the shard axis for engine="auto" (even 1).
        self._n_jobs_pinned = n_jobs is not None
        self.n_jobs = validate_n_jobs(1 if n_jobs is None else n_jobs)
        #: Planner used by ``engine="auto"`` fits; ``None`` builds a default
        #: (calibrated) one on first use.  Tests inject deterministic planners.
        self.planner = None
        self.history_: List[float] = []
        #: Plan chosen by the last ``engine="auto"`` fit (None otherwise).
        self.plan_ = None

    def _rng(self) -> np.random.Generator:
        return np.random.default_rng(self.seed)

    def _workload_descriptor(self):
        """This estimator's Table-1 operator footprint (for ``engine="auto"``).

        Subclasses override with the matching
        :class:`~repro.core.planner.workload.WorkloadDescriptor` factory.
        """
        from repro.core.planner import WorkloadDescriptor

        return WorkloadDescriptor.generic()

    def _resolve_engine(self, data):
        """Resolve ``engine=`` to ``(engine, operand, n_jobs)`` for :meth:`_epoch`.

        For ``"eager"`` this is ``(engine, data, n_jobs)``.  For ``"auto"``
        the planner scores candidate plans for this estimator's workload
        descriptor and the fit follows the winner: a materialized plan swaps
        the normalized operand for its (memoized) materialization, a streamed
        plan a ``"batch"`` fit's operand for ``Partitioned.streamed`` at its
        ``batch_rows`` (the same full-batch epoch, one row batch resident at
        a time, as a sharded plan's runs over shards), a sharded plan sets
        the shard count, and the returned engine (``"eager"`` or
        ``"cofactor"``) chooses between the training loop and linear
        regression's co-factor form.  An sgd fit shards each mini-batch by
        ``n_jobs``, so that is the count its plan prices.  The plan lands in
        ``plan_``.
        """
        if self.engine != "auto":
            self.plan_ = None
            return self.engine, data, self.n_jobs
        from repro.core.partitioned import Partitioned
        from repro.core.planner import Planner

        pinned = (effective_n_jobs(self.n_jobs)
                  if self._n_jobs_pinned or self.solver == "sgd" else None)
        # Steady-state planning: _memoized_materialize makes the join cost a
        # one-time setup per matrix, so repeated fits should not re-charge it.
        planner = self.planner or Planner(charge_materialization=False,
                                          memory_budget=self.memory_budget)
        plan = planner.plan(data, self._workload_descriptor(), n_shards=pinned)
        self.plan_ = plan
        operand = data
        # A streamed plan is factorized or over plain input, so it never
        # materializes; an sgd fit's own mini-batches already bound its rows.
        # Only normalized input has a layout choice; fixed-layout operands
        # (plain, chunked, already-sharded) must never be densified here even
        # if they happen to expose a materialize() method.
        if plan.backend == "streamed" and self.solver == "batch":
            operand = Partitioned.streamed(data, plan.chosen.batch_rows)
        elif not plan.factorized and plan.data_summary.get("kind") == "normalized":
            operand = _memoized_materialize(data)
        return plan.engine, operand, plan.n_jobs

    def _epoch(self, data, target=None, n_jobs: int = 1) -> "Epoch":
        """The epoch this fit repeats ``max_iter`` times over *data*.

        ``solver="batch"`` is one in-order batch covering every row;
        ``solver="sgd"`` batches through a
        :class:`~repro.core.stream.NormalizedBatchIterator` of ``batch_size``
        rows, else rows sized by ``memory_budget``, else one full-size batch.
        """
        if self.solver == "batch":
            return Epoch(data, target, None, n_jobs)
        batches = NormalizedBatchIterator(data, target=target, batch_size=self.batch_size,
                                          shuffle=self.shuffle, seed=self.seed,
                                          memory_budget=self.memory_budget)
        return Epoch(data, target, batches, n_jobs)

    def _run_epochs(self, epoch: "Epoch") -> None:
        """The training loop: ``max_iter`` passes of :meth:`_step` over *epoch*.

        With ``track_history`` each epoch appends :meth:`_epoch_loss` of its
        summed :meth:`_batch_loss` values to ``history_``.
        """
        for _ in range(self.max_iter):
            self._start_epoch()
            loss = 0.0
            for batch in epoch:
                # Each step's output stays bound until the next step has
                # allocated its own: freed first, its pages would go back to
                # the OS and fault in again every iteration.
                output = self._step(batch)
                if self.track_history:
                    loss += self._batch_loss(batch, output)
            if self.track_history:
                self.history_.append(self._epoch_loss(epoch, loss))

    def _step(self, batch):
        """One update of the learned state on one batch; returns its per-row output."""
        raise NotImplementedError(f"{type(self).__name__} has no batch step")

    def _batch_loss(self, batch, output) -> float:
        """A batch's share of its epoch's ``history_`` entry, from :meth:`_step`'s output."""
        return 0.0

    def _start_epoch(self) -> None:
        """Reset per-epoch state before an epoch's first batch (none by default)."""

    def _epoch_loss(self, epoch: "Epoch", loss: float) -> float:
        """The ``history_`` entry of one epoch: its summed batch losses by default."""
        return loss

    def _partial_operand(self, data):
        """One ``partial_fit`` batch, sharded by ``n_jobs``, of the learned model's width."""
        data = shard_for_jobs(data, self.n_jobs)
        weights = getattr(self, self._WEIGHTS)
        if weights is not None and data.shape[1] != weights.shape[0]:
            raise ShapeError(
                f"{type(self).__name__}.partial_fit: batch has {data.shape[1]} features "
                f"but the model has {weights.shape[0]}"
            )
        return data

    @abc.abstractmethod
    def fit(self, data, *args, **kwargs):
        """Train the estimator; must be implemented by subclasses."""


class Epoch:
    """One pass of a fit over its operand: the batches :meth:`IterativeEstimator._step` takes.

    An epoch of one in-order batch -- every ``solver="batch"`` fit, and an
    unshuffled mini-batch fit whose batch covers every row -- is the whole
    operand, sharded once for the fit (``single``).  Otherwise *batches*, a
    :class:`~repro.core.stream.NormalizedBatchIterator`, cuts each epoch
    anew and every batch is sharded when it is reached.  Either way a
    batch's ``rows`` is a ``slice`` unless the epoch is shuffled.
    """

    def __init__(self, data, target=None, batches=None, n_jobs: int = 1):
        n = data.shape[0]
        self.data = data
        self.n_jobs = n_jobs
        self.single = batches is None or (not batches.shuffle and batches.num_batches <= 1)
        #: rows per batch; an in-order pass over the data cuts the same ranges.
        self.batch_rows = max(n, 1) if self.single else batches.batch_size
        self._batches = batches
        self._whole = (Batch(shard_for_jobs(data, n_jobs), slice(0, n), target)
                       if self.single else None)

    @property
    def operand(self):
        """What a once-per-fit pass over every row runs on (sharded when single)."""
        return self._whole.data if self.single else self.data

    def __iter__(self) -> Iterator[Batch]:
        if self.single:
            yield self._whole
            return
        for batch in self._batches:
            yield Batch(shard_for_jobs(batch.data, self.n_jobs), batch.rows, batch.target)


def validate_n_jobs(n_jobs) -> int:
    """Validate an ``n_jobs`` argument: a positive shard count or ``-1``."""
    if not isinstance(n_jobs, (int, np.integer)) or isinstance(n_jobs, bool):
        raise ValueError(f"n_jobs must be an int, got {type(n_jobs).__name__}")
    n_jobs = int(n_jobs)
    if n_jobs == 0 or n_jobs < -1:
        raise ValueError("n_jobs must be a positive shard count or -1 (all CPUs)")
    return n_jobs


def effective_n_jobs(n_jobs: int) -> int:
    """Resolve ``-1`` to the machine's CPU count."""
    if n_jobs == -1:
        from repro.la.parallel import default_workers

        return default_workers()
    return n_jobs


def shard_for_jobs(data, n_jobs: int):
    """Wrap *data* in the sharded parallel backend when ``n_jobs != 1``.

    Normalized matrices shard through their own ``.shard()`` method so every
    shard stays factorized; plain dense/sparse matrices are sharded by
    :meth:`~repro.core.partitioned.Partitioned.sharded`; operands that are
    already partitioned pass through unchanged.  The shard view of a
    normalized matrix is memoized per ``(object, shard count)`` on the matrix
    (base matrices are immutable by the library-wide convention), so
    repeated fits reuse one wrapper.
    """
    jobs = effective_n_jobs(validate_n_jobs(n_jobs))
    if jobs == 1:
        return data
    if hasattr(data, "shard"):
        return _memoized_shard_view(data, jobs)
    from repro.la.types import is_matrix_like

    if not is_matrix_like(data):
        return data  # already-partitioned operands pass through
    from repro.core.partitioned import Partitioned

    return Partitioned.sharded(data, jobs)


def _memoized_materialize(matrix):
    """``matrix.materialize()``, cached on the matrix (bases are immutable).

    A materialized plan would otherwise re-join on every fit; the memo keeps
    repeated ``engine="auto"`` fits on the same data matrix warm, matching
    the per-object memoization of the shard views below.  This is a
    deliberate space-time tradeoff: the dense join output (``n_S x d``) lives as long as
    the matrix does.  Release it with ``del matrix._materialized_view`` if
    the matrix outlives its auto-engine fits.
    """
    cached = getattr(matrix, "_materialized_view", None)
    if cached is not None:
        return cached
    materialized = matrix.materialize()
    try:
        matrix._materialized_view = materialized
    except AttributeError:  # pragma: no cover - exotic operand types
        pass
    return materialized


def _memoized_shard_view(matrix, jobs: int):
    """``matrix.shard(jobs)``, cached on the matrix so repeated fits share it."""
    views = getattr(matrix, "_shard_views", None)
    if views is None:
        views = {}
        try:
            matrix._shard_views = views
        except AttributeError:  # pragma: no cover - exotic operand types
            return matrix.shard(jobs)
    if jobs not in views:
        views[jobs] = matrix.shard(jobs)
    return views[jobs]


def validate_predict_data(data, n_features: int, context: str):
    """Validate and coerce an inference input to a scorable 2-D operand.

    Accepts everything ``fit`` accepts -- plain dense/sparse matrices,
    normalized matrices, chunked/sharded operands -- plus the
    point-request shapes an inference call sees: a 1-D vector of length
    ``n_features`` (one sample) or a nested sequence.  All shape problems
    raise :class:`repro.exceptions.ShapeError` with the estimator context
    instead of leaking backend-specific numpy errors, and every estimator's
    ``predict``/``predict_proba``/``decision_function``/``transform`` routes
    through here so the four algorithms reject bad input identically.
    """
    from repro.la.types import is_matrix_like

    if not is_matrix_like(data) and not hasattr(data, "shape"):
        try:
            data = np.asarray(data, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise ShapeError(f"{context}: input is not matrix-like ({exc})") from exc
    if isinstance(data, np.ndarray):
        if data.ndim == 1:
            if data.shape[0] != n_features:
                raise ShapeError(
                    f"{context}: 1-D input has {data.shape[0]} features, "
                    f"expected {n_features}"
                )
            data = data.reshape(1, -1)
        elif data.ndim != 2:
            raise ShapeError(f"{context}: expected a 1-D or 2-D input, got ndim={data.ndim}")
    shape = getattr(data, "shape", None)
    if shape is None or len(shape) != 2:
        raise ShapeError(f"{context}: operand has no 2-D shape")
    if shape[1] != n_features:
        raise ShapeError(
            f"{context}: input has {shape[1]} features but the model was "
            f"trained with {n_features}"
        )
    return data


def as_column(y) -> np.ndarray:
    """Coerce a target vector to a dense ``(n, 1)`` float column."""
    arr = np.asarray(y, dtype=np.float64)
    if arr.ndim == 1:
        return arr.reshape(-1, 1)
    if arr.ndim == 2 and arr.shape[1] == 1:
        return arr
    raise ShapeError(f"expected a target vector, got shape {arr.shape}")


def check_rows_match(data, y: np.ndarray, context: str) -> None:
    """Raise :class:`ShapeError` unless the data matrix and target align."""
    if data.shape[0] != y.shape[0]:
        raise ShapeError(
            f"{context}: data matrix has {data.shape[0]} rows but target has {y.shape[0]}"
        )

