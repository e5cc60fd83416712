"""Factorized rewrite rules for linear-algebra operators.

Each module in this package implements one operator group of Table 1 as plain
functions over the base-table matrices.  The ``*_star`` functions take a
normalized matrix as ``(S, Ks, Rs)``: ``S`` is the entity-table feature
matrix, ``Ks`` the list of sparse indicator matrices and ``Rs`` the list of
attribute-table feature matrices (Sections 3.3 and 3.5 of the paper).
``S = None`` means the entity block is absent: either the entity table
contributes no features, or the matrix is the (multi-table) M:N form
``T = [I1 R1, ..., Iq Rq]`` in which every table, the entity table
included, is routed through an indicator (Section 3.6 and Appendices D/E).

Keeping the rules as free functions (rather than methods) lets the test suite
verify each rewrite against its materialized counterpart directly, and lets
the ablation benchmarks compare alternative rewrites (naive vs. efficient
cross-product, the two LMM multiplication orders) without touching the
``NormalizedMatrix`` class.
"""

from repro.core.rewrite import (
    aggregation,
    crossprod,
    delta,
    inversion,
    multiplication,
    scalar_ops,
)

__all__ = ["aggregation", "crossprod", "delta", "inversion", "multiplication", "scalar_ops"]
