"""Structural tracing of the factorized rewrite rules (golden-test support).

Every rewrite rule in :mod:`repro.core.rewrite` is expressed exclusively in
terms of the primitives of :mod:`repro.la.ops` and the named kernels of
:mod:`repro.la.kernels` -- that is the closure property.  This module
exploits it for regression protection: it temporarily wraps those functions,
runs a Table-1 operator on a canonical schema, and records every call as one
step of an SSA-style operator tree::

    {"id": "%0", "op": "matmul", "args": ["R1", {"anon": [3, 2]}], "shape": [4, 2]}
    {"id": "%1", "op": "gather_add",
     "args": [{"anon": [8, 2]}, "K1", "R1", {"anon": [3, 2]}], "shape": [8, 2]}

A kernel call is one named step, recorded when it returns, so the
:mod:`repro.la.ops` primitives the kernel runs itself (here ``R1 @ X``)
appear just before it.  Base matrices appear under their paper names (``S``,
``K1``, ``R1``, ...), intermediate results by the step id that produced them,
dtypes by name, and untracked temporaries (NumPy views, slices) as
``{"anon": shape}``.  The serialized trace captures exactly the *factorized
algebra* that runs -- including the multiplication order ``K (R X)`` vs.
``(K R) X`` that the paper's Section 3.3 identifies as the crucial rewrite
decision -- while being independent of the matrix values.  The golden files
under ``tests/goldens/`` pin these traces; any refactor that silently changes
the rewritten algebra fails the structural-equality test.
"""

from __future__ import annotations

import contextlib
import functools
from typing import Callable, Dict, List, Mapping

import numpy as np

from repro.core.rewrite import aggregation
from repro.core.rewrite import crossprod as crossprod_rules
from repro.core.rewrite import delta as delta_rules
from repro.core.rewrite import inversion, multiplication, scalar_ops
from repro.la import kernels as kernel_layer

#: Primitive names whose calls constitute the rewritten operator tree.
PRIMITIVES = frozenset({
    "matmul", "transpose", "rowsums", "colsums", "total_sum", "crossprod",
    "diag_scale_rows", "scalar_op", "elementwise", "ginv", "hstack", "vstack",
})

#: The modules whose primitive calls are intercepted: the rewrite rules and
#: the kernel layer, whose own small base-table products are part of the
#: algebra.
REWRITE_MODULES = (aggregation, crossprod_rules, delta_rules, inversion,
                   multiplication, scalar_ops, kernel_layer)


class RewriteTrace:
    """Recorder for one traced rewrite execution."""

    def __init__(self):
        self.steps: List[dict] = []
        self._names: Dict[int, str] = {}
        self._alive: List[object] = []  # keeps traced objects alive so ids stay unique

    def register(self, name: str, operand: object) -> None:
        """Give *operand* a stable name in the recorded trees (e.g. ``"K1"``)."""
        self._names[id(operand)] = name
        self._alive.append(operand)

    def describe(self, value) -> object:
        """JSON-able descriptor of one primitive argument."""
        if value is None or isinstance(value, (bool, int, float, str)):
            return value
        if isinstance(value, (np.integer, np.floating)):
            return float(value)
        if isinstance(value, np.dtype):
            return value.name
        if id(value) in self._names:
            return self._names[id(value)]
        if isinstance(value, (list, tuple)):
            return [self.describe(v) for v in value]
        if callable(value):
            return {"fn": getattr(value, "__name__", "callable")}
        if hasattr(value, "shape"):
            return {"anon": [int(s) for s in value.shape]}
        return {"value": repr(value)}  # pragma: no cover - defensive

    def record(self, op: str, args: tuple, kwargs: dict, result) -> None:
        step = {"op": op, "args": [self.describe(a) for a in args]}
        if kwargs:
            step["kwargs"] = {k: self.describe(v) for k, v in sorted(kwargs.items())}
        if hasattr(result, "shape"):
            ref = f"%{len(self.steps)}"
            step["id"] = ref
            step["shape"] = [int(s) for s in result.shape]
            self._names[id(result)] = ref
            self._alive.append(result)
        self.steps.append(step)


def _wrap(tracer: RewriteTrace, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        tracer.record(fn.__name__, args, kwargs, result)
        return result

    return wrapper


@contextlib.contextmanager
def trace_rewrites(named_operands: Mapping[str, object]):
    """Intercept every :mod:`repro.la.ops` primitive and every kernel call.

    The primitive patch targets the names *imported into* each rewrite module
    (they use ``from repro.la.ops import ...``), matching by the underlying
    function's ``__name__`` so aliases like ``inversion.dense_ginv`` are
    covered too.  The kernels are patched on :mod:`repro.la.kernels` itself.
    Yields the :class:`RewriteTrace` collecting the steps.
    """
    tracer = RewriteTrace()
    for name, operand in named_operands.items():
        tracer.register(name, operand)
    patched: List[tuple] = []
    try:
        for module in REWRITE_MODULES:
            for attr, value in list(vars(module).items()):
                if callable(value) and getattr(value, "__module__", None) == "repro.la.ops" \
                        and value.__name__ in PRIMITIVES:
                    setattr(module, attr, _wrap(tracer, value))
                    patched.append((module, attr, value))
        # Callers reach kernels through the module attribute, so wrapping the
        # attribute records each call as one step.
        for name in kernel_layer.KERNEL_NAMES:
            kernel = getattr(kernel_layer, name)
            setattr(kernel_layer, name, _wrap(tracer, kernel))
            patched.append((kernel_layer, name, kernel))
        yield tracer
    finally:
        for module, attr, original in patched:
            setattr(module, attr, original)


# ---------------------------------------------------------------------------
# Canonical schemas and the Table-1 trace set
# ---------------------------------------------------------------------------

def canonical_star_schema():
    """A small deterministic 2-join star schema with full column rank.

    Returns ``(normalized, named_operands)``: an 8x7 logical matrix with
    ``S`` 8x2, ``(K1, R1)`` joining 4 attribute rows of width 3 and
    ``(K2, R2)`` joining 2 attribute rows of width 2.  Values are seeded but
    the traces depend only on the structure.
    """
    from repro.core.normalized_matrix import NormalizedMatrix
    from repro.la.ops import indicator_from_labels

    rng = np.random.default_rng(42)
    entity = rng.standard_normal((8, 2))
    r1 = rng.standard_normal((4, 3))
    r2 = rng.standard_normal((2, 2))
    k1 = indicator_from_labels(np.array([0, 1, 2, 3, 0, 1, 2, 3]), num_columns=4)
    k2 = indicator_from_labels(np.array([0, 1, 0, 1, 0, 1, 0, 1]), num_columns=2)
    normalized = NormalizedMatrix(entity, [k1, k2], [r1, r2])
    named = {"S": entity, "K1": k1, "K2": k2, "R1": r1, "R2": r2}
    return normalized, named


def canonical_snowflake_schema():
    """A deterministic two-hop snowflake schema (8 entity rows).

    Returns ``(normalized, named_operands)``: ``S`` 8x2; a single-hop join
    ``(K1, R1)`` with 4 attribute rows of width 3; and a two-hop alias
    ``C1 = H1 H2`` (8 -> 4 -> 2) routing to ``R2`` (2 rows, width 2), stored
    as its composed codes.  ``C1`` is registered so the goldens pin exactly
    where the rewrites touch the alias's indicator.
    """
    from repro.core.normalized_matrix import NormalizedMatrix
    from repro.la.ops import indicator_from_labels

    rng = np.random.default_rng(42)
    entity = rng.standard_normal((8, 2))
    r1 = rng.standard_normal((4, 3))
    r2 = rng.standard_normal((2, 2))
    k1 = indicator_from_labels(np.array([0, 1, 2, 3, 0, 1, 2, 3]), num_columns=4)
    h1 = indicator_from_labels(np.array([0, 1, 2, 3, 3, 2, 1, 0]), num_columns=4)
    h2 = indicator_from_labels(np.array([0, 1, 0, 1]), num_columns=2)
    chain = h1 @ h2
    normalized = NormalizedMatrix(entity, [k1, chain], [r1, r2])
    named = {"S": entity, "K1": k1, "H1": h1, "H2": h2, "C1": chain,
             "R1": r1, "R2": r2}
    return normalized, named


def canonical_mn_schema():
    """A deterministic two-component M:N schema (10 output rows)."""
    from repro.core.normalized_matrix import NormalizedMatrix
    from repro.la.ops import indicator_from_labels

    rng = np.random.default_rng(7)
    r1 = rng.standard_normal((4, 2))
    r2 = rng.standard_normal((3, 3))
    i1 = indicator_from_labels(np.array([0, 1, 2, 3, 0, 1, 2, 3, 0, 1]), num_columns=4)
    i2 = indicator_from_labels(np.array([0, 1, 2, 0, 1, 2, 0, 1, 2, 0]), num_columns=3)
    normalized = NormalizedMatrix(None, [i1, i2], [r1, r2])
    named = {"I1": i1, "I2": i2, "R1": r1, "R2": r2}
    return normalized, named


def table1_traces() -> Dict[str, dict]:
    """Trace every Table-1 operator on the canonical schemas.

    Returns ``{trace_name: {"schema": ..., "operator": ..., "steps": [...]}}``,
    the exact structures serialized into ``tests/goldens/*.json``.
    """
    from repro.la.ops import indicator_from_labels

    rng = np.random.default_rng(3)
    traces: Dict[str, dict] = {}

    star, star_named = canonical_star_schema()
    x = rng.standard_normal((star.shape[1], 2))
    w = rng.standard_normal((2, star.shape[0]))
    y = rng.standard_normal((star.shape[0], 2))
    # A cluster assignment K_A (K-Means' centroid update T^T K_A).
    k_a = indicator_from_labels(np.array([0, 1, 2, 0, 1, 2, 0, 1]), num_columns=3)
    star_ops = {
        "star_scalar_multiply": lambda tn: tn * 3.0,
        "star_scalar_add": lambda tn: tn + 3.0,
        "star_scalar_power": lambda tn: tn ** 2,
        "star_apply_exp": lambda tn: tn.apply(np.exp),
        "star_rowsums": lambda tn: tn.rowsums(),
        "star_colsums": lambda tn: tn.colsums(),
        "star_total_sum": lambda tn: tn.total_sum(),
        "star_lmm": lambda tn: tn @ x,
        "star_rmm": lambda tn: w @ tn,
        "star_transposed_lmm": lambda tn: tn.T @ y,
        "star_indicator_transposed_lmm": lambda tn: tn.T @ k_a,
        "star_crossprod_naive": lambda tn: tn.crossprod(method="naive"),
        "star_crossprod_efficient": lambda tn: tn.crossprod(method="efficient"),
        "star_gram_transposed": lambda tn: tn.T.crossprod(),
        "star_ginv": lambda tn: tn.ginv(),
        "star_solve": lambda tn: tn.solve(y[:, :1]),
    }
    star_args = dict(star_named, X=x, W=w, Y=y, KA=k_a)
    for name, op in star_ops.items():
        with trace_rewrites(star_args) as tracer:
            op(star)
        traces[name] = {"schema": "canonical-star", "operator": name,
                        "steps": tracer.steps}

    snow, snow_named = canonical_snowflake_schema()
    x_sf = rng.standard_normal((snow.shape[1], 2))
    w_sf = rng.standard_normal((2, snow.shape[0]))
    y_sf = rng.standard_normal((snow.shape[0], 2))
    snow_ops = {
        "snowflake_lmm": lambda tn: tn @ x_sf,
        "snowflake_rmm": lambda tn: w_sf @ tn,
        "snowflake_transposed_lmm": lambda tn: tn.T @ y_sf,
        "snowflake_crossprod_naive": lambda tn: tn.crossprod(method="naive"),
        "snowflake_crossprod_efficient": lambda tn: tn.crossprod(method="efficient"),
        "snowflake_rowsums": lambda tn: tn.rowsums(),
        "snowflake_colsums": lambda tn: tn.colsums(),
        "snowflake_total_sum": lambda tn: tn.total_sum(),
    }
    snow_args = dict(snow_named, X=x_sf, W=w_sf, Y=y_sf)
    for name, op in snow_ops.items():
        with trace_rewrites(snow_args) as tracer:
            op(snow)
        traces[name] = {"schema": "canonical-snowflake", "operator": name,
                        "steps": tracer.steps}

    mn, mn_named = canonical_mn_schema()
    x_mn = rng.standard_normal((mn.shape[1], 2))
    w_mn = rng.standard_normal((2, mn.shape[0]))
    mn_ops = {
        "mn_rowsums": lambda tn: tn.rowsums(),
        "mn_colsums": lambda tn: tn.colsums(),
        "mn_total_sum": lambda tn: tn.total_sum(),
        "mn_lmm": lambda tn: tn @ x_mn,
        "mn_rmm": lambda tn: w_mn @ tn,
        "mn_crossprod": lambda tn: tn.crossprod(),
        "mn_scalar_multiply": lambda tn: tn * 2.0,
    }
    mn_args = dict(mn_named, X=x_mn, W=w_mn)
    for name, op in mn_ops.items():
        with trace_rewrites(mn_args) as tracer:
            op(mn)
        traces[name] = {"schema": "canonical-mn", "operator": name,
                        "steps": tracer.steps}

    traces.update(_delta_traces(star, star_named, x, y, mn, mn_named, x_mn))
    return traces


def _delta_traces(star, star_named, x, y, mn, mn_named, x_mn) -> Dict[str, dict]:
    """Trace the rank-|Δ| delta rules on the canonical schemas.

    A deterministic two-row delta on table/component 1; the delta operands
    get their own names (``D`` = new - old, ``Dold`` / ``Dnew`` the row
    values, ``G`` the pre-delta Gram matrix, ``R1p`` the post-delta table).
    """
    rng = np.random.default_rng(11)
    traces: Dict[str, dict] = {}

    rows = np.array([0, 2])
    r1 = star.attributes[0]
    d_old = np.array(r1[rows, :])
    d_new = d_old + rng.standard_normal(d_old.shape)
    dvals = d_new - d_old
    r1p = np.array(r1)
    r1p[rows, :] = d_new
    gram = star.crossprod()
    k1 = star_named["K1"]
    x_block = x[star.entity_width:star.entity_width + r1.shape[1], :]
    star_delta_ops = {
        "star_delta_lmm": lambda: delta_rules.delta_lmm(k1, rows, dvals, x_block),
        "star_delta_transposed_lmm": lambda: delta_rules.delta_tlmm_block(
            k1, rows, dvals, y),
        "star_delta_rowsums": lambda: delta_rules.delta_rowsums(k1, rows, dvals),
        "star_delta_colsums": lambda: delta_rules.delta_colsums_block(k1, rows, dvals),
        "star_delta_total_sum": lambda: delta_rules.delta_total_sum(k1, rows, dvals),
        "star_delta_crossprod": lambda: delta_rules.patch_crossprod(
            gram, star.entity, star.indicators, [r1p, star.attributes[1]],
            0, rows, d_old, d_new),
    }
    star_args = dict(star_named, X=x, Y=y, D=dvals, Dold=d_old, Dnew=d_new,
                     G=gram, R1p=r1p)
    for name, op in star_delta_ops.items():
        with trace_rewrites(star_args) as tracer:
            op()
        traces[name] = {"schema": "canonical-star", "operator": name,
                        "steps": tracer.steps}

    rows_mn = np.array([1, 3])
    r1_mn = mn.attributes[0]
    d_old_mn = np.array(r1_mn[rows_mn, :])
    d_new_mn = d_old_mn + rng.standard_normal(d_old_mn.shape)
    dvals_mn = d_new_mn - d_old_mn
    r1p_mn = np.array(r1_mn)
    r1p_mn[rows_mn, :] = d_new_mn
    gram_mn = mn.crossprod()
    i1 = mn_named["I1"]
    mn_delta_ops = {
        "mn_delta_lmm": lambda: delta_rules.delta_lmm(
            i1, rows_mn, dvals_mn, x_mn[: r1_mn.shape[1], :]),
        "mn_delta_crossprod": lambda: delta_rules.patch_crossprod(
            gram_mn, None, mn.indicators, [r1p_mn, mn.attributes[1]],
            0, rows_mn, d_old_mn, d_new_mn),
    }
    mn_args = dict(mn_named, X=x_mn, D=dvals_mn, Dold=d_old_mn, Dnew=d_new_mn,
                   G=gram_mn, R1p=r1p_mn)
    for name, op in mn_delta_ops.items():
        with trace_rewrites(mn_args) as tracer:
            op()
        traces[name] = {"schema": "canonical-mn", "operator": name,
                        "steps": tracer.steps}
    return traces
