"""Logistic regression with batch gradient descent (paper Algorithms 3 and 4).

The data-intensive work per iteration is one left multiplication ``T w`` and
one transposed left multiplication ``T^T p`` -- exactly the two operators whose
factorized rewrites (LMM and RMM of the transposed normalized matrix) drive
the speed-ups in Figure 5(a) and Table 7.

Two update rules are provided:

* ``update="paper"`` -- the literal update of Algorithm 3,
  ``w += alpha * T^T (Y / (1 + exp(T w)))``, which is what the paper times.
* ``update="exact"`` -- the exact gradient-ascent update for labels in
  ``{-1, +1}``, ``w += alpha * T^T (Y / (1 + exp(Y * (T w))))``.  It has the
  same LA structure (and hence the same cost) but better statistical
  behaviour, so the examples use it.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.stream import Batch
from repro.la import kernels
from repro.la.generic import to_dense_result
from repro.ml.base import (
    IterativeEstimator,
    as_column,
    fit_telemetry,
    check_rows_match,
    validate_predict_data,
)
from repro.ml.export import ServingExport
from repro.ml.metrics import clip_scores, sigmoid


class LogisticRegressionGD(IterativeEstimator):
    """Binary logistic regression trained with full-batch gradient descent.

    Attributes
    ----------
    coef_:
        Learned weight vector of shape ``(d, 1)``.
    history_:
        Per-iteration negative log-likelihood when ``track_history`` is set.
    """

    def __init__(self, max_iter: int = 20, step_size: float = 1e-4,
                 seed: Optional[int] = 0, track_history: bool = False,
                 update: str = "paper", engine: str = "eager", n_jobs: Optional[int] = None,
                 solver: str = "batch", batch_size: Optional[int] = None,
                 shuffle: bool = False, memory_budget: Optional[float] = None):
        super().__init__(max_iter=max_iter, step_size=step_size, seed=seed,
                         track_history=track_history, engine=engine, n_jobs=n_jobs,
                         solver=solver, batch_size=batch_size, shuffle=shuffle,
                         memory_budget=memory_budget)
        if update not in ("paper", "exact"):
            raise ValueError("update must be 'paper' or 'exact'")
        self.update = update
        self.coef_: Optional[np.ndarray] = None

    def _workload_descriptor(self):
        from repro.core.planner import WorkloadDescriptor

        return WorkloadDescriptor.logistic_regression(self.max_iter)

    @fit_telemetry
    def fit(self, data, target, initial_weights: Optional[np.ndarray] = None
            ) -> "LogisticRegressionGD":
        """Train on the data matrix *data* (regular or normalized) and labels *target*.

        Labels are expected in ``{-1, +1}`` (use
        :func:`repro.ml.preprocessing.binarize_labels` to convert 0/1 labels).
        """
        y = as_column(target)
        _, data, n_jobs = self._resolve_engine(data)
        check_rows_match(data, y, "LogisticRegressionGD.fit")
        d = data.shape[1]
        self.coef_ = as_column(initial_weights).copy() if initial_weights is not None \
            else np.zeros((d, 1))
        self.history_ = []
        self._run_epochs(self._epoch(data, y, n_jobs))
        return self

    def _step(self, batch) -> np.ndarray:
        """One ascent step of Algorithm 3 on *batch*; returns the batch scores ``T w``."""
        self.coef_, scores = kernels.logistic_sgd_step(batch.data, batch.target, self.coef_,
                                                       self.step_size, self.update)
        return scores

    def _batch_loss(self, batch, scores: np.ndarray) -> float:
        """The batch's negative log-likelihood under the weights it was scored with."""
        return self._negative_log_likelihood(scores, batch.target)

    def partial_fit(self, data, target) -> "LogisticRegressionGD":
        """One incremental ascent step on a single mini-batch (labels in ``{-1, +1}``).

        Initializes ``coef_`` to zeros on the first call; factorized and
        materialized batches produce matching updates to numerical precision.
        """
        data = self._partial_operand(data)
        y = as_column(target)
        check_rows_match(data, y, "LogisticRegressionGD.partial_fit")
        if self.coef_ is None:
            self.coef_ = np.zeros((data.shape[1], 1))
        batch = Batch(data, slice(0, data.shape[0]), y)
        scores = self._step(batch)
        if self.track_history:
            self.history_.append(self._batch_loss(batch, scores))
        return self

    @staticmethod
    def _negative_log_likelihood(scores: np.ndarray, y: np.ndarray) -> float:
        margins = y * scores
        return float(np.sum(np.log1p(np.exp(-clip_scores(margins)))))

    def decision_function(self, data) -> np.ndarray:
        """Raw scores ``T w`` for the given data matrix."""
        if self.coef_ is None:
            raise RuntimeError("model is not fitted")
        data = validate_predict_data(data, self.coef_.shape[0],
                                     "LogisticRegressionGD.decision_function")
        return to_dense_result(data @ self.coef_)

    def export_weights(self) -> ServingExport:
        """Export the learned weights for the serving subsystem."""
        if self.coef_ is None:
            raise RuntimeError("LogisticRegressionGD.export_weights: model is not fitted")
        return ServingExport("logistic_regression", self.coef_,
                             metadata={"update": self.update})

    def predict_proba(self, data) -> np.ndarray:
        """Probability of the positive class for each row."""
        return sigmoid(self.decision_function(data))

    def predict(self, data) -> np.ndarray:
        """Predicted labels in ``{-1, +1}``."""
        return np.where(self.decision_function(data) >= 0.0, 1.0, -1.0)
