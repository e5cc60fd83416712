"""Least-squares linear regression (paper Algorithms 5/6, 11/12 and 13/14).

Three solvers are provided, matching the paper:

* :class:`LinearRegressionNE` -- the normal-equation solver
  ``w = ginv(crossprod(T)) (T^T Y)`` of Algorithm 5.  Its runtime is dominated
  by ``crossprod``, which is why its speed-up curves track Figure 3(c).
* :class:`LinearRegressionGD` -- batch gradient descent
  ``w -= alpha * T^T (T w - Y)`` of Algorithm 11 (Appendix G), used when ``d``
  is large or the Gram matrix is singular.
* :class:`LinearRegressionCofactor` -- the hybrid of Schleich et al.
  (Algorithm 13/14): build the co-factor matrix
  ``C = [Y^T T ; crossprod(T)]`` once, then iterate cheap ``(d+1) x d``
  updates (optionally with AdaGrad step-size scaling).

All three are written against the generic LA surface, so they are
automatically factorized when handed a normalized matrix.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.delta import held_cofactor_terms, term_owner
from repro.core.stream import Batch
from repro.la import generic, kernels
from repro.la.generic import to_dense_result
from repro.ml.base import (
    IterativeEstimator,
    as_column,
    fit_telemetry,
    check_rows_match,
    shard_for_jobs,
    validate_n_jobs,
    validate_predict_data,
)
from repro.ml.export import ServingExport


def cofactor_terms(data, y: np.ndarray, n_jobs: int = 1):
    """The two join-invariant terms ``(crossprod(T), T^T Y)`` of least squares.

    One factorized cross-product and one factorized transposed LMM over
    *data*, sharded by *n_jobs*; together they are the co-factor matrix of
    Algorithms 13/14, and ``crossprod(T) w - T^T Y`` is the least-squares
    gradient for any ``w``.

    The terms are held on the normalized matrix they were computed for (a
    streamed view resolves to its source), keyed by *y*'s contents: a
    later fit on the same matrix and target reuses them, and the first fit
    on an ``apply_delta`` successor patches the predecessor's instead of
    passing over the join again (:func:`repro.core.delta.held_cofactor_terms`).
    Neither path builds shards.  Any other operand computes them afresh.
    """
    def compute():
        operand = shard_for_jobs(data, n_jobs)
        return generic.crossprod(operand), to_dense_result(operand.T @ y)

    owner = term_owner(data)
    if owner is None:
        return compute()
    return held_cofactor_terms(owner, y, compute)


def _export_linear(coef: Optional[np.ndarray], context: str) -> ServingExport:
    """Shared ``export_weights`` body of the three linear-regression solvers."""
    if coef is None:
        raise RuntimeError(f"{context}: model is not fitted")
    return ServingExport("linear_regression", coef)


class LinearRegressionNE:
    """Ordinary least squares via the normal equations and the pseudo-inverse."""

    def __init__(self, crossprod_method: Optional[str] = None, n_jobs: int = 1):
        self.crossprod_method = crossprod_method
        self.n_jobs = validate_n_jobs(n_jobs)
        self.coef_: Optional[np.ndarray] = None

    @fit_telemetry
    def fit(self, data, target) -> "LinearRegressionNE":
        """Solve ``w = ginv(T^T T) (T^T Y)``."""
        data = shard_for_jobs(data, self.n_jobs)
        y = as_column(target)
        check_rows_match(data, y, "LinearRegressionNE.fit")
        if self.crossprod_method is not None and hasattr(data, "crossprod"):
            gram = np.asarray(data.crossprod(self.crossprod_method))
        else:
            gram = generic.crossprod(data)
        xty = to_dense_result(data.T @ y)
        self.coef_ = np.linalg.pinv(gram) @ xty
        return self

    def predict(self, data) -> np.ndarray:
        if self.coef_ is None:
            raise RuntimeError("model is not fitted")
        data = validate_predict_data(data, self.coef_.shape[0], "LinearRegressionNE.predict")
        return to_dense_result(data @ self.coef_)

    def export_weights(self) -> ServingExport:
        """Export the learned weights for the serving subsystem."""
        return _export_linear(self.coef_, "LinearRegressionNE.export_weights")


class LinearRegressionGD(IterativeEstimator):
    """Ordinary least squares via batch gradient descent (Algorithm 11/12).

    ``engine="eager"`` runs Algorithm 11 verbatim: two LA passes over the
    data per iteration.  Under ``engine="auto"`` the planner may instead pick
    the co-factor form: the gradient ``T^T (T w - Y)`` equals
    ``crossprod(T) w - T^T Y``, so both data-sized terms are computed once
    (:func:`cofactor_terms`) and every iteration costs ``O(d^2)`` regular
    arithmetic -- the hybrid of :class:`LinearRegressionCofactor` with a
    plain step size.
    """

    def __init__(self, max_iter: int = 20, step_size: float = 1e-6,
                 seed: Optional[int] = 0, track_history: bool = False,
                 engine: str = "eager", n_jobs: Optional[int] = None,
                 solver: str = "batch", batch_size: Optional[int] = None,
                 shuffle: bool = False, memory_budget: Optional[float] = None):
        super().__init__(max_iter=max_iter, step_size=step_size, seed=seed,
                         track_history=track_history, engine=engine, n_jobs=n_jobs,
                         solver=solver, batch_size=batch_size, shuffle=shuffle,
                         memory_budget=memory_budget)
        self.coef_: Optional[np.ndarray] = None

    def _workload_descriptor(self):
        from repro.core.planner import WorkloadDescriptor

        return WorkloadDescriptor.linear_regression_gd(
            self.max_iter, cofactor=self.solver == "batch")

    @fit_telemetry
    def fit(self, data, target, initial_weights: Optional[np.ndarray] = None
            ) -> "LinearRegressionGD":
        y = as_column(target)
        engine, data, n_jobs = self._resolve_engine(data)
        check_rows_match(data, y, "LinearRegressionGD.fit")
        d = data.shape[1]
        w = as_column(initial_weights).copy() if initial_weights is not None else np.zeros((d, 1))
        self.history_ = []
        if engine == "cofactor":
            return self._fit_cofactor(data, n_jobs, y, w)
        self.coef_ = w
        self._run_epochs(self._epoch(data, y, n_jobs))
        return self

    def _step(self, batch) -> np.ndarray:
        """One gradient step of Algorithm 11 on *batch*; returns the batch residual.

        A batch of a normalized matrix is a ``take_rows`` slice (attribute
        tables shared), so an epoch streams the base matrices without ever
        materializing the join.
        """
        self.coef_, residual = kernels.sgd_step(batch.data, batch.target, self.coef_,
                                                self.step_size)
        return residual

    def _batch_loss(self, batch, residual: np.ndarray) -> float:
        """The batch's residual sum of squares."""
        return float(np.sum(residual ** 2))

    def partial_fit(self, data, target) -> "LinearRegressionGD":
        """One incremental gradient step on a single mini-batch.

        Initializes ``coef_`` to zeros on the first call (the feature count
        comes from the batch) and applies one update of the Algorithm 11 rule
        restricted to the batch.  *data* may be a factorized batch (a
        ``take_rows`` slice, as yielded by
        :class:`~repro.core.stream.NormalizedBatchIterator` or the chunk-wise
        CSV reader) or a plain row slice -- the two match to numerical
        precision, which the equivalence suite checks.
        """
        data = self._partial_operand(data)
        y = as_column(target)
        check_rows_match(data, y, "LinearRegressionGD.partial_fit")
        if self.coef_ is None:
            self.coef_ = np.zeros((data.shape[1], 1))
        batch = Batch(data, slice(0, data.shape[0]), y)
        residual = self._step(batch)
        if self.track_history:
            self.history_.append(self._batch_loss(batch, residual))
        return self

    def _fit_cofactor(self, data, n_jobs: int, y: np.ndarray,
                      w: np.ndarray) -> "LinearRegressionGD":
        """The co-factor form: two data passes per fit (or none, with held
        terms), then ``d x d`` steps.

        With ``track_history`` every iteration also runs ``T w`` over the
        *n_jobs* shards for the residual sum of squares, as the eager epochs
        report it.
        """
        gram, xty = cofactor_terms(data, y, n_jobs)
        if self.track_history:
            data = shard_for_jobs(data, n_jobs)
        for _ in range(self.max_iter):
            if self.track_history:
                residual = to_dense_result(data @ w) - y
                self.history_.append(float(np.sum(residual ** 2)))
            w = w - self.step_size * (gram @ w - xty)
        self.coef_ = w
        return self

    def predict(self, data) -> np.ndarray:
        if self.coef_ is None:
            raise RuntimeError("model is not fitted")
        data = validate_predict_data(data, self.coef_.shape[0], "LinearRegressionGD.predict")
        return to_dense_result(data @ self.coef_)

    def export_weights(self) -> ServingExport:
        """Export the learned weights for the serving subsystem."""
        return _export_linear(self.coef_, "LinearRegressionGD.export_weights")


class LinearRegressionCofactor(IterativeEstimator):
    """The co-factor hybrid of Schleich et al. [35] (Algorithms 13 and 14).

    The expensive LA over the data matrix happens exactly once, when building
    the co-factor ``C = [Y^T T ; crossprod(T)]``; the iterative phase only
    touches ``C``, which is ``(d+1) x d``.  With a normalized matrix, building
    ``C`` uses the factorized transposed-LMM and cross-product rewrites, which
    is how Morpheus subsumes that prior system.
    """

    def __init__(self, max_iter: int = 20, step_size: float = 1e-6,
                 seed: Optional[int] = 0, track_history: bool = False,
                 adagrad: bool = True, epsilon: float = 1e-8, n_jobs: int = 1):
        super().__init__(max_iter=max_iter, step_size=step_size, seed=seed,
                         track_history=track_history, n_jobs=n_jobs)
        self.adagrad = bool(adagrad)
        self.epsilon = float(epsilon)
        self.coef_: Optional[np.ndarray] = None
        self.cofactor_: Optional[np.ndarray] = None

    @fit_telemetry
    def fit(self, data, target, initial_weights: Optional[np.ndarray] = None
            ) -> "LinearRegressionCofactor":
        y = as_column(target)
        check_rows_match(data, y, "LinearRegressionCofactor.fit")
        d = data.shape[1]
        gram, xty = cofactor_terms(data, y, self.n_jobs)
        cofactor = np.vstack([xty.T, gram])         # (d + 1) x d
        self.cofactor_ = cofactor

        w = as_column(initial_weights).copy() if initial_weights is not None else np.zeros((d, 1))
        accumulated = np.zeros((d, 1))
        self.history_ = []
        for _ in range(self.max_iter):
            stacked = np.vstack([-np.ones((1, 1)), w])      # [-1; w]
            gradient = cofactor.T @ stacked                  # = crossprod(T) w - T^T Y
            if self.adagrad:
                accumulated += gradient ** 2
                scaled = gradient / (np.sqrt(accumulated) + self.epsilon)
                w = w - self.step_size * scaled
            else:
                w = w - self.step_size * gradient
            if self.track_history:
                self.history_.append(float(np.linalg.norm(gradient)))
        self.coef_ = w
        return self

    def predict(self, data) -> np.ndarray:
        if self.coef_ is None:
            raise RuntimeError("model is not fitted")
        data = validate_predict_data(data, self.coef_.shape[0],
                                     "LinearRegressionCofactor.predict")
        return to_dense_result(data @ self.coef_)

    def export_weights(self) -> ServingExport:
        """Export the learned weights for the serving subsystem."""
        return _export_linear(self.coef_, "LinearRegressionCofactor.export_weights")
