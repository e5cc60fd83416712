"""Stateful correctness of held co-factor terms under interleaved operations.

A Hypothesis state machine drives one lineage of normalized matrices over
integer-valued star and snowflake schemas whose dimension tables are
:class:`~repro.relational.table.Table` objects:

* ``upsert_rows`` / ``delete_rows`` (a tombstone) on a dimension table, fed
  to ``apply_delta`` on the current matrix;
* a co-factor refit on the current matrix with target A or B, alone or
  right after a delta (the refresh-then-fit cycle, which patches);
* an in-place mutation of a target;
* a fit on an older matrix of the lineage.

The oracle is a matrix rebuilt from the tables each lineage step stood on.
Integer data keeps every path exact, so after every refit the held terms --
patched along an ``apply_delta`` link or recomputed -- must equal the terms
of the rebuilt matrix bit for bit.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.core import NormalizedMatrix
from repro.la.ops import indicator_from_labels
from repro.ml.linear_regression import cofactor_terms
from repro.relational.table import Table

#: Lineage steps kept for fits on older matrices.
HISTORY = 4


def _labels(rng, n_rows: int, n_ref: int) -> np.ndarray:
    labels = np.concatenate([np.arange(n_ref), rng.integers(0, n_ref, size=n_rows - n_ref)])
    rng.shuffle(labels)
    return labels


def _ints(rng, shape) -> np.ndarray:
    return rng.integers(-4, 5, size=shape).astype(np.float64)


def _table(rng, name: str, n_rows: int, width: int) -> Table:
    return Table(name, {f"{name}{j}": _ints(rng, n_rows) for j in range(width)})


def _schema(kind: str, rng):
    """``(entity, indicators, tables)`` of a small star or two-hop snowflake."""
    n = 60
    if kind == "star":
        tables = [_table(rng, "a", 9, 3), _table(rng, "b", 5, 2)]
        indicators = [indicator_from_labels(_labels(rng, n, t.num_rows),
                                            num_columns=t.num_rows) for t in tables]
    else:
        tables = [_table(rng, "store", 8, 3), _table(rng, "region", 3, 2),
                  _table(rng, "product", 6, 2)]
        store = indicator_from_labels(_labels(rng, n, 8), num_columns=8)
        region = store @ indicator_from_labels(_labels(rng, 8, 3), num_columns=3)
        product = indicator_from_labels(_labels(rng, n, 6), num_columns=6)
        indicators = [store, region, product]
    return _ints(rng, (n, 2)), indicators, tables


class HeldTermsProtocol(RuleBasedStateMachine):
    """One lineage of ``apply_delta`` successors, refit in any order."""

    @initialize(kind=st.sampled_from(["star", "snowflake"]),
                seed=st.integers(0, 2 ** 16))
    def build(self, kind, seed):
        self.rng = np.random.default_rng(seed)
        self.entity, self.indicators, tables = _schema(kind, self.rng)
        matrix = self._rebuilt(tables)
        #: (matrix, the tables it stands on), oldest first
        self.lineage = [(matrix, tables)]
        n = matrix.shape[0]
        self.targets = {"A": _ints(self.rng, (n, 1)), "B": _ints(self.rng, (n, 1))}

    def _rebuilt(self, tables) -> NormalizedMatrix:
        return NormalizedMatrix(self.entity, self.indicators,
                                [t.numeric_matrix() for t in tables])

    def _refit(self, matrix, tables, which: str) -> None:
        y = self.targets[which]
        gram, xty = cofactor_terms(matrix, y)
        expected = cofactor_terms(self._rebuilt(tables), y)
        assert np.array_equal(gram, expected[0])
        assert np.array_equal(xty, expected[1])

    @rule(table=st.integers(0, 2), count=st.integers(1, 3), tombstone=st.booleans())
    def apply_delta(self, table, count, tombstone):
        self._apply_delta(table, count, tombstone)

    @rule(table=st.integers(0, 2), count=st.integers(1, 3), tombstone=st.booleans(),
          which=st.sampled_from("AB"))
    def refresh_then_refit(self, table, count, tombstone, which):
        """The serving cycle: a delta, then a fit on the successor."""
        self._apply_delta(table, count, tombstone)
        self._refit(*self.lineage[-1], which)

    def _apply_delta(self, table, count, tombstone):
        matrix, tables = self.lineage[-1]
        k = table % len(tables)
        current = tables[k]
        rows = self.rng.choice(current.num_rows, size=min(count, current.num_rows),
                               replace=False)
        if tombstone:
            successor, delta = current.delete_rows(rows)
        else:
            updates = {name: _ints(self.rng, rows.size) for name in current.column_names}
            successor, delta = current.upsert_rows(rows, updates)
        tables = list(tables)
        tables[k] = successor
        self.lineage = (self.lineage + [(matrix.apply_delta(k, delta), tables)])[-HISTORY:]

    @rule(which=st.sampled_from("AB"))
    def refit(self, which):
        self._refit(*self.lineage[-1], which)

    @rule(which=st.sampled_from("AB"), back=st.integers(1, HISTORY - 1))
    def fit_older_matrix(self, which, back):
        self._refit(*self.lineage[-1 - min(back, len(self.lineage) - 1)], which)

    @rule(which=st.sampled_from("AB"), amount=st.integers(-3, 3).filter(bool))
    def mutate_target(self, which, amount):
        y = self.targets[which]
        y[self.rng.integers(0, y.shape[0])] += amount

    @invariant()
    def held_terms_equal_a_recompute(self):
        """Whatever the current matrix holds is the recompute for its key."""
        for matrix, tables in self.lineage:
            held = matrix._terms.held if matrix._terms is not None else None
            if held is None:
                continue
            key, gram, xty = held
            expected = cofactor_terms(self._rebuilt(tables), key)
            assert np.array_equal(gram, expected[0])
            assert np.array_equal(xty, expected[1])


HeldTermsProtocol.TestCase.settings = settings(
    max_examples=30, stateful_step_count=20, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow])
TestHeldTermsProtocol = HeldTermsProtocol.TestCase
