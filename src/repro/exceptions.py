"""Exception hierarchy for the Morpheus reproduction library.

All library-specific errors derive from :class:`MorpheusError` so callers can
catch everything raised by this package with a single ``except`` clause while
still being able to discriminate the finer-grained categories below.
"""

from __future__ import annotations


class MorpheusError(Exception):
    """Base class for every error raised by this library."""


class ShapeError(MorpheusError):
    """Raised when matrix dimensions are incompatible for an operation."""


class SchemaError(MorpheusError):
    """Raised when relational schema metadata is invalid or inconsistent.

    Examples include a foreign key referencing a column that does not exist,
    duplicate primary keys in an attribute table, or a join specification that
    names a missing table.
    """


class IndicatorError(MorpheusError):
    """Raised when an indicator matrix violates its structural invariants.

    For a PK-FK indicator matrix ``K`` every row must contain exactly one
    non-zero entry equal to one; for M:N indicator matrices every row must
    contain exactly one non-zero and every column at least one.
    """


class RewriteError(MorpheusError):
    """Raised when a rewrite rule cannot be applied to the given operands."""


class NotSupportedError(MorpheusError):
    """Raised for operations outside the supported LA operator set (Table 1)."""


class PlanningError(MorpheusError):
    """Raised when the cost-based planner cannot produce a feasible plan.

    The only current source is a memory budget too small for *any* execution
    strategy -- even the streamed backend, one row batch at a time, needs the
    factorized base matrices resident.
    """


class DeltaError(MorpheusError):
    """Raised when an incremental-maintenance delta cannot be applied.

    Examples include a delta whose ``old`` values disagree with the matrix
    being patched (the change was captured against a different version), row
    indices outside the target table, or a non-patchable change (a physical
    delete that renumbers rows) routed to a patch-only consumer.
    """


class ServingError(MorpheusError):
    """Raised for invalid requests to the model-serving subsystem.

    Examples include scoring with the wrong number of join keys, a key that
    falls outside an attribute table, or asking a scorer for a prediction
    head its model kind does not define (``predict_proba`` on K-Means).
    """


class SchemaMismatchError(ServingError):
    """Raised when a model is scored against a schema it was not trained on.

    The serving subsystem fingerprints the column-segment structure of the
    normalized matrix at export time; loading the model against a matrix with
    a different fingerprint (changed table widths, added/dropped joins) must
    fail loudly instead of silently mis-slicing the weight vector.
    """


class RegistryError(ServingError):
    """Raised for model-registry failures: unknown model names or versions,
    or a corrupt/incomplete version directory on disk."""


class DataGenerationError(MorpheusError):
    """Raised when a synthetic dataset specification is infeasible."""
