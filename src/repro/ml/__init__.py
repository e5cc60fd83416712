"""ML algorithms expressed in linear algebra.

The four algorithms the paper factorizes (Section 4) are implemented here,
each written *once* against the generic LA functions in
:mod:`repro.la.generic` and the operand's operator overloads.  Passing a plain
(materialized) matrix gives the standard single-table version; passing a
:class:`~repro.core.normalized_matrix.NormalizedMatrix` (star schema or M:N
join) gives the automatically factorized version -- no algorithm-specific
rewriting is required, which is the paper's central claim.

* :class:`~repro.ml.logistic_regression.LogisticRegressionGD`
* :class:`~repro.ml.linear_regression.LinearRegressionNE` (normal equations),
  :class:`~repro.ml.linear_regression.LinearRegressionGD` (gradient descent)
  and :class:`~repro.ml.linear_regression.LinearRegressionCofactor`
  (the Schleich et al. co-factor + AdaGrad hybrid)
* :class:`~repro.ml.kmeans.KMeans`
* :class:`~repro.ml.gnmf.GNMF`
"""

from repro.ml.logistic_regression import LogisticRegressionGD
from repro.ml.linear_regression import (
    LinearRegressionNE,
    LinearRegressionGD,
    LinearRegressionCofactor,
)
from repro.ml.kmeans import KMeans
from repro.ml.gnmf import GNMF
from repro.ml.export import ServingExport, apply_head, export_model
from repro.ml.metrics import (
    accuracy,
    clip_scores,
    log_loss,
    mean_squared_error,
    root_mean_squared_error,
    r2_score,
    sigmoid,
    within_cluster_ss,
    reconstruction_error,
)
from repro.ml.preprocessing import binarize_labels, standardize, train_test_split_rows

__all__ = [
    "LogisticRegressionGD",
    "LinearRegressionNE",
    "LinearRegressionGD",
    "LinearRegressionCofactor",
    "KMeans",
    "GNMF",
    "ServingExport",
    "apply_head",
    "export_model",
    "accuracy",
    "clip_scores",
    "sigmoid",
    "log_loss",
    "mean_squared_error",
    "root_mean_squared_error",
    "r2_score",
    "within_cluster_ss",
    "reconstruction_error",
    "binarize_labels",
    "standardize",
    "train_test_split_rows",
]
