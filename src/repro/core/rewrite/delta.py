"""Algebraic delta rules: rank-|Δ| patches for the Table-1 operators.

Incremental view maintenance for the factorized algebra.  Every Table-1
result over a normalized matrix is a *sum of per-table contributions*
(Sections 3.3 and 3.5 of the paper), so a row-level change to one attribute
table ``R_k`` perturbs the result by a term that involves only the changed
rows -- never the full table and never the join output.  Writing
``Δ = R_k' - R_k`` for the ``(b, d_k)`` matrix of row changes on row set
``ρ`` (``|ρ| = b``), the rules are::

    Δ(T X)          = K_k[:, ρ] (Δ X_k)                  -- LMM block push-down
    Δ(T^T Y)[seg_k] = Δ^T (K_k[:, ρ]^T Y)                -- transposed LMM
    Δ rowSums(T)    = K_k[:, ρ] rowSums(Δ)
    Δ colSums(T)[seg_k] = colSums(K_k[:, ρ]) Δ
    Δ sum(T)        = sum(colSums(K_k[:, ρ]) Δ)
    Δ crossprod(T)  = block-sparse, touching only row/column segment k:
        diagonal:    R_k'[ρ]^T D_ρ R_k'[ρ] - R_k[ρ]^T D_ρ R_k[ρ]
        vs entity:   (S^T K_k[:, ρ]) Δ
        vs table j:  Δ^T (K_k[:, ρ]^T K_j) R_j

where ``D_ρ = diag(colSums(K_k[:, ρ]))`` counts the foreign keys referencing
each changed row.  Each patch costs ``O(nnz(K_k[:, ρ]) + b · d · m)`` --
proportional to the *delta*, not to ``|R_k|`` or ``n_S`` -- which is what
makes update-to-visibility latency sublinear in table size.

Like every rewrite module, the rules are expressed exclusively through the
:mod:`repro.la.ops` primitives, so they participate in the closure property
and in the golden structural traces of :mod:`repro.core.rewrite.trace`.  The
cross blocks' ``K_k[:, ρ]^T K_j`` is counted from the indicator codes, as
:func:`repro.la.kernels.cross_block` counts ``K_i^T K_j``, and enters the
traces as an anonymous operand.
The M:N rules are the same formulas without the entity block.
"""

from __future__ import annotations

import functools
import time
from typing import List, Optional, Sequence

import numpy as np

from repro import obs
from repro.exceptions import ShapeError
from repro.la.indicator import Indicator
from repro.la.kernels import _code_pair_counts
from repro.la.ops import colsums, diag_scale_rows, matmul, rowsums, transpose
from repro.la.types import MatrixLike, ensure_2d, to_dense

_RULE_SECONDS = obs.REGISTRY.histogram(
    "repro_delta_rule_seconds",
    "Latency of individual rank-|delta| patch rules",
    labels=("rule",),
)
_RULES_TOTAL = obs.REGISTRY.counter(
    "repro_delta_rules_total",
    "Patch-rule applications by rule name",
    labels=("rule",),
)


def _timed_rule(fn):
    """Time a patch rule when observability is on (pure wrapper: the rule's
    ``la.ops`` primitive-call structure -- and hence the golden traces -- is
    untouched)."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not obs.enabled():
            return fn(*args, **kwargs)
        started = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            _RULE_SECONDS.labels(rule=fn.__name__).observe(
                time.perf_counter() - started)
            _RULES_TOTAL.labels(rule=fn.__name__).inc()

    return wrapper


def select_columns(indicator: MatrixLike, rows: np.ndarray) -> MatrixLike:
    """The ``n_S x b`` indicator slice ``K[:, ρ]`` routing only changed rows.

    Column selection is not a Table-1 primitive (it is plain indexing, the
    same way the LMM rewrite slices ``X`` row-wise), so the slice appears as
    an anonymous operand in the golden traces.
    """
    rows = np.asarray(rows, dtype=np.int64)
    return indicator[:, rows]


def _check_delta(rows: np.ndarray, values: np.ndarray, what: str) -> None:
    if values.ndim != 2:
        raise ShapeError(f"{what}: delta values must be 2-D, got ndim={values.ndim}")
    if rows.ndim != 1 or rows.shape[0] != values.shape[0]:
        raise ShapeError(
            f"{what}: got {rows.shape[0] if rows.ndim == 1 else rows.shape} row indices "
            f"for {values.shape[0]} delta rows"
        )


# ---------------------------------------------------------------------------
# Linear patches (LMM / transposed LMM / aggregations)
# ---------------------------------------------------------------------------

@_timed_rule
def delta_lmm(indicator: MatrixLike, rows: np.ndarray, dvalues: np.ndarray,
              x_block: MatrixLike) -> np.ndarray:
    """Patch term for ``T @ X``: ``K_k[:, ρ] (Δ X_k)``, shape ``(n_S, m)``.

    *x_block* is the row block of ``X`` belonging to table ``k`` (the same
    split the LMM rewrite uses); the small product ``Δ X_k`` goes first,
    exactly like the crucial ``K (R X)`` ordering of the full rule.
    """
    dvalues = ensure_2d(dvalues)
    rows = np.asarray(rows, dtype=np.int64)
    _check_delta(rows, dvalues, "delta LMM")
    selected = select_columns(indicator, rows)
    return to_dense(matmul(selected, matmul(dvalues, x_block)))


@_timed_rule
def delta_tlmm_block(indicator: MatrixLike, rows: np.ndarray, dvalues: np.ndarray,
                     y: MatrixLike) -> np.ndarray:
    """Patch for rows ``seg_k`` of ``T^T Y``: ``Δ^T (K_k[:, ρ]^T Y)``, ``(d_k, m)``.

    Only the ``d_k`` result rows belonging to the changed table move; the
    caller adds this block in place.  ``K_k[:, ρ]^T Y`` gathers the target
    rows whose foreign key points at a changed attribute row -- ``O(nnz)``
    in the delta's fan-in, not in ``n_S``.
    """
    dvalues = ensure_2d(dvalues)
    rows = np.asarray(rows, dtype=np.int64)
    _check_delta(rows, dvalues, "delta transposed LMM")
    selected = select_columns(indicator, rows)
    return to_dense(matmul(transpose(dvalues), matmul(transpose(selected), y)))


@_timed_rule
def delta_rowsums(indicator: MatrixLike, rows: np.ndarray,
                  dvalues: np.ndarray) -> np.ndarray:
    """Patch term for ``rowSums(T)``: ``K_k[:, ρ] rowSums(Δ)``, ``(n_S, 1)``."""
    dvalues = ensure_2d(dvalues)
    rows = np.asarray(rows, dtype=np.int64)
    _check_delta(rows, dvalues, "delta rowsums")
    selected = select_columns(indicator, rows)
    return to_dense(matmul(selected, rowsums(dvalues)))


@_timed_rule
def delta_colsums_block(indicator: MatrixLike, rows: np.ndarray,
                        dvalues: np.ndarray) -> np.ndarray:
    """Patch for columns ``seg_k`` of ``colSums(T)``: ``colSums(K_k[:, ρ]) Δ``."""
    dvalues = ensure_2d(dvalues)
    rows = np.asarray(rows, dtype=np.int64)
    _check_delta(rows, dvalues, "delta colsums")
    counts = colsums(select_columns(indicator, rows))
    return to_dense(matmul(counts, dvalues))


@_timed_rule
def delta_total_sum(indicator: MatrixLike, rows: np.ndarray,
                    dvalues: np.ndarray) -> float:
    """Patch term for ``sum(T)``: the grand total of the colsums patch."""
    return float(delta_colsums_block(indicator, rows, dvalues).sum())


# ---------------------------------------------------------------------------
# Cross-product patch (the Gram matrix)
# ---------------------------------------------------------------------------

@_timed_rule
def patch_crossprod(gram: np.ndarray, entity: Optional[MatrixLike],
                    indicators: Sequence[Indicator], attributes: Sequence[MatrixLike],
                    table_index: int, rows: np.ndarray, old: np.ndarray,
                    new: np.ndarray) -> np.ndarray:
    """Return ``crossprod(T')`` patched from the pre-delta ``crossprod(T)``.

    *attributes* are the **post-delta** attribute matrices (only
    ``attributes[table_index]`` differs from the state *gram* was computed
    on); *old* / *new* are the ``(b, d_k)`` changed-row values.  Only the
    blocks in row/column segment ``k`` are touched -- a rank-``2b`` update
    of the ``d x d`` Gram matrix.  Works for both the star schema
    (``entity`` is ``S`` or ``None``) and the M:N form (``entity=None``).
    """
    old = ensure_2d(np.asarray(old, dtype=np.float64))
    new = ensure_2d(np.asarray(new, dtype=np.float64))
    rows = np.asarray(rows, dtype=np.int64)
    _check_delta(rows, new, "crossprod patch")
    if old.shape != new.shape:
        raise ShapeError(f"crossprod patch: old {old.shape} vs new {new.shape}")
    entity_width = entity.shape[1] if entity is not None else 0
    widths = [r.shape[1] for r in attributes]
    offsets = _offsets(entity_width, widths)
    k = table_index
    ok, wk = offsets[k], widths[k]
    if new.shape[1] != wk:
        raise ShapeError(
            f"crossprod patch: delta has {new.shape[1]} columns but table {k} has {wk}"
        )
    out = np.array(to_dense(gram), dtype=np.float64)  # writable successor copy
    dvalues = new - old
    selected = select_columns(indicators[k], rows)

    # Diagonal block: R'^T D R' - R^T D R over the changed rows (exact on
    # integer data, where scaling by sqrt(D) would round).
    counts = np.asarray(colsums(selected)).ravel()
    out[ok:ok + wk, ok:ok + wk] += (
        to_dense(matmul(transpose(new), diag_scale_rows(counts, new)))
        - to_dense(matmul(transpose(old), diag_scale_rows(counts, old)))
    )

    # Entity block: (S^T K_k[:, ρ]) Δ and its transpose.
    if entity_width:
        block = to_dense(matmul(matmul(transpose(entity), selected), dvalues))
        out[:entity_width, ok:ok + wk] += block
        out[ok:ok + wk, :entity_width] += block.T

    # Cross blocks vs every other table: Δ^T (K_k[:, ρ]^T K_j) R_j.
    fact_rows, positions = _routed_rows(indicators[k], rows)
    for j, (indicator_j, attribute_j) in enumerate(zip(indicators, attributes)):
        if j == k:
            continue
        crossing = _code_pair_counts(positions, indicator_j._codes[fact_rows],
                                     rows.size, indicator_j.shape[1])
        block = to_dense(matmul(transpose(dvalues), matmul(crossing, attribute_j)))
        oj, wj = offsets[j], widths[j]
        out[ok:ok + wk, oj:oj + wj] += block
        out[oj:oj + wj, ok:ok + wk] += block.T
    return out


def _routed_rows(indicator: Indicator, rows: np.ndarray):
    """``(fact rows, positions in ρ)`` of the rows of *indicator* that
    reference a changed row, read off its codes.

    They are the nonzeros of ``K_k[:, ρ]``, so ``K_k[:, ρ]^T K_j`` is the
    code-pair histogram of *positions* against ``K_j``'s codes at *fact
    rows* (as :func:`repro.la.kernels.cross_block` counts ``K_i^T K_j``)
    instead of a sparse product that converts ``K_j``'s ``n``-row CSR.
    """
    position = np.full(indicator.shape[1], -1, dtype=np.intp)
    position[rows] = np.arange(rows.size)
    positions = position[indicator._codes]
    fact_rows = np.flatnonzero(positions >= 0)
    return fact_rows, positions[fact_rows]


def _offsets(entity_width: int, widths: Sequence[int]) -> List[int]:
    offsets = []
    start = entity_width
    for width in widths:
        offsets.append(start)
        start += width
    return offsets
