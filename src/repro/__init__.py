"""Morpheus: factorized linear algebra over normalized data.

A from-scratch Python reproduction of "Towards Linear Algebra over Normalized
Data" (Chen, Kumar, Naughton, Patel; VLDB 2017).  The top-level namespace
re-exports the public API most users need:

>>> from repro import NormalizedMatrix, morpheus, LogisticRegressionGD
>>> # build a normalized matrix from base-table matrices S, K, R ...
>>> # and train any of the LA-based ML algorithms on it directly.

See ``README.md`` for a quickstart, ``docs/architecture.md`` for the layer
map, and ``docs/paper_map.md`` for the paper-section to code inventory.
"""

# obs first: it depends only on stdlib+numpy and every other layer's
# instrumentation imports it, so loading it up front keeps the import
# graph acyclic by construction.
from repro import obs
from repro.core import (
    NormalizedMatrix,
    MNNormalizedMatrix,
    materialize,
    morpheus,
    DecisionRule,
    Plan,
    Planner,
    WorkloadDescriptor,
    NormalizedBatchIterator,
    Partitioned,
)
from repro.core.decision import morpheus_mn
from repro.ml import (
    LogisticRegressionGD,
    LinearRegressionNE,
    LinearRegressionGD,
    LinearRegressionCofactor,
    KMeans,
    GNMF,
)
from repro.relational import Table, read_csv, read_csv_chunks, stream_normalized_batches
from repro.serve import FactorizedScorer, ModelRegistry, ScoringService

__version__ = "8.0.0"

__all__ = [
    "obs",
    "NormalizedMatrix",
    "MNNormalizedMatrix",
    "materialize",
    "morpheus",
    "morpheus_mn",
    "DecisionRule",
    "Plan",
    "Planner",
    "WorkloadDescriptor",
    "LogisticRegressionGD",
    "LinearRegressionNE",
    "LinearRegressionGD",
    "LinearRegressionCofactor",
    "KMeans",
    "GNMF",
    "NormalizedBatchIterator",
    "Partitioned",
    "FactorizedScorer",
    "ModelRegistry",
    "ScoringService",
    "Table",
    "read_csv",
    "read_csv_chunks",
    "stream_normalized_batches",
    "__version__",
]
