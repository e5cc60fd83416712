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
each changed row.  The nonzeros of ``K_k[:, ρ]`` -- the fact rows that
reference a changed row, grouped by it -- come from the indicator's reverse
index (:meth:`repro.la.indicator.Indicator.reverse_index`, one sort of its
codes, built once per indicator) in ``O(b + f)``, where ``f = nnz(K_k[:, ρ])``
is the delta's fan-in.  Every ``K_k[:, ρ]^T Z`` is then a sum of the gathered
rows ``Z[fact rows]`` per changed row, so a patch costs ``O(b + f · d + b · d
· m)`` -- proportional to the *delta*, not to ``|R_k|`` or ``n_S`` -- which is
what makes update-to-visibility latency sublinear in table size.  (The
``T X`` and ``rowSums(T)`` patches are ``n_S``-row vectors: they scatter
``f`` rows into a zeroed result.)

Like every rewrite module, the rules are expressed through the
:mod:`repro.la.ops` primitives, so they participate in the closure property
and in the golden structural traces of :mod:`repro.core.rewrite.trace`.  The
routed sums ``K_k[:, ρ]^T S``, ``K_k[:, ρ]^T Y`` and ``K_k[:, ρ]^T K_j R_j``
(the last gathered through ``K_j``'s codes at the fact rows) are indexing,
not Table-1 primitives, and enter the traces as anonymous operands, as
:func:`repro.la.kernels.cross_block`'s code-pair counts do.
The M:N rules are the same formulas without the entity block.
"""

from __future__ import annotations

import functools
import time
from typing import NamedTuple, Optional, Sequence

import numpy as np

from repro import obs
from repro.core.segments import attribute_offsets
from repro.exceptions import ShapeError
from repro.la.indicator import Indicator
from repro.la.ops import diag_scale_rows, matmul, rowsums, transpose
from repro.la.types import MatrixLike, ensure_2d, is_sparse, to_dense

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


def _check_delta(rows: np.ndarray, values: np.ndarray, what: str) -> None:
    if values.ndim != 2:
        raise ShapeError(f"{what}: delta values must be 2-D, got ndim={values.ndim}")
    if rows.ndim != 1 or rows.shape[0] != values.shape[0]:
        raise ShapeError(
            f"{what}: got {rows.shape[0] if rows.ndim == 1 else rows.shape} row indices "
            f"for {values.shape[0]} delta rows"
        )


# ---------------------------------------------------------------------------
# Routing: the nonzeros of K_k[:, ρ], read off the reverse index
# ---------------------------------------------------------------------------

class Routing(NamedTuple):
    """The nonzeros of ``K_k[:, ρ]``, grouped by changed row.

    *fact_rows* are the rows of ``K_k`` whose ``1`` lies in a column of ρ,
    grouped by that column's position in ρ (*positions*, non-decreasing);
    *counts* are the group sizes, ``colSums(K_k[:, ρ])``.
    """

    fact_rows: np.ndarray
    positions: np.ndarray
    counts: np.ndarray


def route(indicator: Indicator, rows: np.ndarray) -> Routing:
    """The :class:`Routing` of the changed rows *rows* (ρ) through *indicator*.

    ``O(b + f)`` for ``b`` changed rows referenced by ``f`` fact rows, once
    the indicator's reverse index exists; no ``n_S``-length pass.
    """
    order, starts = indicator.reverse_index()
    rows = np.asarray(rows, dtype=np.intp)
    first = starts[rows]
    counts = starts[rows + 1] - first
    positions = np.repeat(np.arange(rows.size), counts)
    # Routed row i of group p sits at order[first[p] + i - (rows routed before p)].
    shift = first - (np.cumsum(counts) - counts)
    fact_rows = order[np.repeat(shift, counts) + np.arange(positions.size)]
    return Routing(fact_rows, positions, counts)


def _routing(indicator: Indicator, rows: np.ndarray,
             routing: Optional[Routing]) -> Routing:
    return route(indicator, rows) if routing is None else routing


def _routed_sums(values: MatrixLike, gather: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``(b, d)`` float64 sums of the rows ``values[gather]`` over consecutive
    groups of *counts* rows: ``K_k[:, ρ]^T values`` when *gather* are the
    routed fact rows, ``K_k[:, ρ]^T K_j R_j`` when they are ``K_j``'s codes
    at them."""
    bounds = np.zeros(counts.size + 1, dtype=np.intp)
    np.cumsum(counts, out=bounds[1:])
    if is_sparse(values):
        picked = values.tocsr()[gather]
        # Each group's rows concatenated into one CSR row; densifying sums
        # the repeated columns.
        merged = type(picked)((picked.data.astype(np.float64, copy=False), picked.indices,
                               picked.indptr[bounds]), shape=(counts.size, values.shape[1]))
        return merged.toarray()
    picked = np.asarray(values).take(gather, axis=0).astype(np.float64, copy=False)
    out = np.zeros((counts.size, picked.shape[1]))
    filled = counts > 0
    if gather.size:
        out[filled] = np.add.reduceat(picked, bounds[:-1][filled], axis=0)
    return out


def _scattered(indicator: Indicator, routing: Routing, small: np.ndarray) -> np.ndarray:
    """``K_k[:, ρ] small``: row ``p`` of *small* written to each fact row of group ``p``."""
    out = np.zeros((indicator.shape[0], small.shape[1]))
    out[routing.fact_rows] = small[routing.positions]
    return out


# ---------------------------------------------------------------------------
# Linear patches (LMM / transposed LMM / aggregations)
# ---------------------------------------------------------------------------

@_timed_rule
def delta_lmm(indicator: Indicator, rows: np.ndarray, dvalues: np.ndarray,
              x_block: MatrixLike, routing: Optional[Routing] = None) -> np.ndarray:
    """Patch term for ``T @ X``: ``K_k[:, ρ] (Δ X_k)``, shape ``(n_S, m)``.

    *x_block* is the row block of ``X`` belonging to table ``k`` (the same
    split the LMM rewrite uses); the small product ``Δ X_k`` goes first,
    exactly like the crucial ``K (R X)`` ordering of the full rule, and is
    then scattered to the routed fact rows.
    """
    dvalues = ensure_2d(dvalues)
    rows = np.asarray(rows, dtype=np.int64)
    _check_delta(rows, dvalues, "delta LMM")
    routing = _routing(indicator, rows, routing)
    return _scattered(indicator, routing, to_dense(matmul(dvalues, x_block)))


@_timed_rule
def delta_tlmm_block(indicator: Indicator, rows: np.ndarray, dvalues: np.ndarray,
                     y: MatrixLike, routing: Optional[Routing] = None) -> np.ndarray:
    """Patch for rows ``seg_k`` of ``T^T Y``: ``Δ^T (K_k[:, ρ]^T Y)``, ``(d_k, m)``.

    Only the ``d_k`` result rows belonging to the changed table move; the
    caller adds this block in place.  ``K_k[:, ρ]^T Y`` sums the target
    rows whose foreign key points at a changed attribute row -- ``O(f)`` in
    the delta's fan-in, not in ``n_S``.
    """
    dvalues = ensure_2d(dvalues)
    rows = np.asarray(rows, dtype=np.int64)
    _check_delta(rows, dvalues, "delta transposed LMM")
    routing = _routing(indicator, rows, routing)
    routed = _routed_sums(ensure_2d(y), routing.fact_rows, routing.counts)
    return to_dense(matmul(transpose(dvalues), routed))


@_timed_rule
def delta_rowsums(indicator: Indicator, rows: np.ndarray, dvalues: np.ndarray,
                  routing: Optional[Routing] = None) -> np.ndarray:
    """Patch term for ``rowSums(T)``: ``K_k[:, ρ] rowSums(Δ)``, ``(n_S, 1)``."""
    dvalues = ensure_2d(dvalues)
    rows = np.asarray(rows, dtype=np.int64)
    _check_delta(rows, dvalues, "delta rowsums")
    routing = _routing(indicator, rows, routing)
    return _scattered(indicator, routing, to_dense(rowsums(dvalues)))


@_timed_rule
def delta_colsums_block(indicator: Indicator, rows: np.ndarray, dvalues: np.ndarray,
                        routing: Optional[Routing] = None) -> np.ndarray:
    """Patch for columns ``seg_k`` of ``colSums(T)``: ``colSums(K_k[:, ρ]) Δ``."""
    dvalues = ensure_2d(dvalues)
    rows = np.asarray(rows, dtype=np.int64)
    _check_delta(rows, dvalues, "delta colsums")
    counts = _routing(indicator, rows, routing).counts.astype(np.float64)
    return to_dense(matmul(counts.reshape(1, -1), dvalues))


@_timed_rule
def delta_total_sum(indicator: Indicator, rows: np.ndarray, dvalues: np.ndarray,
                    routing: Optional[Routing] = None) -> float:
    """Patch term for ``sum(T)``: the grand total of the colsums patch."""
    return float(delta_colsums_block(indicator, rows, dvalues, routing).sum())


# ---------------------------------------------------------------------------
# Cross-product patch (the Gram matrix)
# ---------------------------------------------------------------------------

@_timed_rule
def patch_crossprod(gram: np.ndarray, entity: Optional[MatrixLike],
                    indicators: Sequence[Indicator], attributes: Sequence[MatrixLike],
                    table_index: int, rows: np.ndarray, old: np.ndarray,
                    new: np.ndarray, routing: Optional[Routing] = None) -> np.ndarray:
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
    offsets = attribute_offsets(entity_width, widths)
    k = table_index
    ok, wk = offsets[k], widths[k]
    if new.shape[1] != wk:
        raise ShapeError(
            f"crossprod patch: delta has {new.shape[1]} columns but table {k} has {wk}"
        )
    out = np.array(to_dense(gram), dtype=np.float64)  # writable successor copy
    dvalues = new - old
    fact_rows, _, counts = _routing(indicators[k], rows, routing)

    # Diagonal block: R'^T D R' - R^T D R over the changed rows (exact on
    # integer data, where scaling by sqrt(D) would round).
    weights = counts.astype(np.float64)
    out[ok:ok + wk, ok:ok + wk] += (
        to_dense(matmul(transpose(new), diag_scale_rows(weights, new)))
        - to_dense(matmul(transpose(old), diag_scale_rows(weights, old)))
    )

    # Entity block: (K_k[:, ρ]^T S)^T Δ and its transpose.
    if entity_width:
        block = to_dense(matmul(transpose(_routed_sums(entity, fact_rows, counts)), dvalues))
        out[:entity_width, ok:ok + wk] += block
        out[ok:ok + wk, :entity_width] += block.T

    # Cross blocks vs every other table: Δ^T (K_k[:, ρ]^T K_j R_j), the
    # routed sums of R_j's rows at K_j's codes of the fact rows.
    for j, (indicator_j, attribute_j) in enumerate(zip(indicators, attributes)):
        if j == k:
            continue
        routed = _routed_sums(attribute_j, indicator_j._codes[fact_rows], counts)
        block = to_dense(matmul(transpose(dvalues), routed))
        oj, wj = offsets[j], widths[j]
        out[ok:ok + wk, oj:oj + wj] += block
        out[oj:oj + wj, ok:ok + wk] += block.T
    return out
