"""Held co-factor terms: a refit after ``apply_delta`` patches, never drifts.

``cofactor_terms`` holds ``(crossprod(T), T^T y)`` on the normalized matrix
it computed them for, keyed by the target's contents.  A successor of
``apply_delta`` records ``(predecessor's slot, table_index, delta)``, and its
first co-factor fit patches the held terms with the rank-|Δ| rules instead of
passing over the join again.  On integer-valued data every path is exact, so
the patched terms must equal a recompute on a freshly built matrix bit for
bit -- also when the stored tables round the delta's values (float32 and
integer sparse tables).  The patches find the fact rows that reference a
changed row through the indicator's reverse index; that routing must equal
the nonzeros of ``K_k[:, ρ]``, and a patched refit at scale must touch only
what the delta reaches: no indicator CSR, no hash of the target, no
``n``-row temporary.
"""

from __future__ import annotations

import gc
import hashlib
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core import MNNormalizedMatrix, NormalizedMatrix
from repro.core import delta as delta_module
from repro.core.delta import MatrixDelta
from repro.core.rewrite import delta as delta_rules
from repro.la.kernels import _code_pair_counts
from repro.la.ops import indicator_from_labels
from repro.la.types import to_dense
from repro.ml import LinearRegressionCofactor, LinearRegressionGD
from repro.ml.linear_regression import cofactor_terms

from tests.ml.test_cofactor_form import CofactorPlanner


def _labels(rng, n_rows: int, n_ref: int) -> np.ndarray:
    labels = np.concatenate([np.arange(n_ref), rng.integers(0, n_ref, size=n_rows - n_ref)])
    rng.shuffle(labels)
    return labels


def _ints(rng, shape) -> np.ndarray:
    return rng.integers(-4, 5, size=shape).astype(np.float64)


def _star(rng, values=_ints):
    n_s = 150
    indicators = [indicator_from_labels(_labels(rng, n_s, n_r), num_columns=n_r)
                  for n_r in (20, 9)]
    return NormalizedMatrix(values(rng, (n_s, 3)), indicators,
                            [values(rng, (20, 4)), values(rng, (9, 3))])


def _snowflake(rng, values=_ints):
    """Fact -> store -> region (a two-hop alias) plus a direct product join."""
    n_s, n_store, n_region, n_product = 160, 16, 5, 8
    store = indicator_from_labels(_labels(rng, n_s, n_store), num_columns=n_store)
    region = store @ indicator_from_labels(_labels(rng, n_store, n_region),
                                           num_columns=n_region)
    product = indicator_from_labels(_labels(rng, n_s, n_product), num_columns=n_product)
    return NormalizedMatrix(values(rng, (n_s, 2)), [store, region, product],
                            [values(rng, (n_store, 3)), values(rng, (n_region, 2)),
                             values(rng, (n_product, 4))])


def _mn(rng, values=_ints):
    n_out, domain = 140, 18
    indicators = [indicator_from_labels(_labels(rng, n_out, domain), num_columns=domain)
                  for _ in range(2)]
    return MNNormalizedMatrix(indicators, [values(rng, (domain, 4)), values(rng, (domain, 2))])


SCHEMAS = {"star": _star, "snowflake": _snowflake, "mn": _mn}


def _problem(schema: str, values=_ints):
    rng = np.random.default_rng(sorted(SCHEMAS).index(schema))
    matrix = SCHEMAS[schema](rng, values)
    return matrix, values(rng, (matrix.shape[0], 1)), rng


def _delta(rng, matrix, table_index: int, values=_ints) -> MatrixDelta:
    attribute = matrix.attributes[table_index]
    rows = rng.choice(attribute.shape[0], size=min(3, attribute.shape[0]), replace=False)
    return MatrixDelta.upsert(rows, values(rng, (rows.size, attribute.shape[1])), attribute)


def _rebuilt(matrix) -> NormalizedMatrix:
    """The same logical matrix built afresh: no held terms, no lineage."""
    return NormalizedMatrix(matrix.entity, matrix.indicators, matrix.attributes)


def _recompute(matrix, y):
    return cofactor_terms(_rebuilt(matrix), y)


def _assert_terms_equal(actual, expected) -> None:
    assert np.array_equal(actual[0], expected[0])
    assert np.array_equal(actual[1], expected[1])


@pytest.fixture
def patches(monkeypatch):
    """Count the ``patch_term`` calls the held-terms path makes."""
    calls = []
    original = delta_module.patch_term

    def counting(kind, *args, **kwargs):
        calls.append(kind)
        return original(kind, *args, **kwargs)

    monkeypatch.setattr(delta_module, "patch_term", counting)
    return calls


@pytest.mark.parametrize("schema", sorted(SCHEMAS))
def test_fit_between_deltas_patches_bit_for_bit(schema, patches):
    matrix, y, rng = _problem(schema)
    cofactor_terms(matrix, y)
    for step in range(4):
        matrix = matrix.apply_delta(step % matrix.num_joins,
                                    _delta(rng, matrix, step % matrix.num_joins))
        _assert_terms_equal(cofactor_terms(matrix, y), _recompute(matrix, y))
        assert patches == ["crossprod", "tlmm"] * (step + 1)
        assert matrix._lineage is None


@pytest.mark.parametrize("schema", sorted(SCHEMAS))
def test_refit_on_the_same_matrix_reuses_the_held_terms(schema, patches):
    matrix, y, _ = _problem(schema)
    first = cofactor_terms(matrix, y)
    again = cofactor_terms(matrix, y.copy())
    assert again[0] is first[0] and again[1] is first[1]
    assert not first[0].flags.writeable and not first[1].flags.writeable
    assert patches == []


@pytest.mark.parametrize("schema", sorted(SCHEMAS))
def test_two_deltas_without_a_fit_recompute(schema, patches):
    """One link only: the middle matrix held a lineage, not terms."""
    matrix, y, rng = _problem(schema)
    cofactor_terms(matrix, y)
    middle = matrix.apply_delta(0, _delta(rng, matrix, 0))
    last = middle.apply_delta(0, _delta(rng, middle, 0))
    _assert_terms_equal(cofactor_terms(last, y), _recompute(last, y))
    assert patches == []


@pytest.mark.parametrize("schema", sorted(SCHEMAS))
def test_predecessor_fitted_after_the_delta_is_patched_from(schema, patches):
    matrix, y, rng = _problem(schema)
    successor = matrix.apply_delta(1, _delta(rng, matrix, 1))
    cofactor_terms(matrix, y)
    _assert_terms_equal(cofactor_terms(successor, y), _recompute(successor, y))
    assert patches == ["crossprod", "tlmm"]


@pytest.mark.parametrize("schema", sorted(SCHEMAS))
def test_deltas_to_two_tables_between_fits(schema, patches):
    matrix, y, rng = _problem(schema)
    cofactor_terms(matrix, y)
    for table_index in (0, matrix.num_joins - 1, 0):
        matrix = matrix.apply_delta(table_index, _delta(rng, matrix, table_index))
        _assert_terms_equal(cofactor_terms(matrix, y), _recompute(matrix, y))
    assert len(patches) == 6


@pytest.mark.parametrize("schema", sorted(SCHEMAS))
def test_a_different_target_recomputes(schema, patches):
    matrix, y, rng = _problem(schema)
    cofactor_terms(matrix, y)
    successor = matrix.apply_delta(0, _delta(rng, matrix, 0))
    other = y + 1.0
    _assert_terms_equal(cofactor_terms(successor, other), _recompute(successor, other))
    assert patches == []


@pytest.mark.parametrize("schema", sorted(SCHEMAS))
def test_a_target_mutated_in_place_recomputes(schema, patches):
    matrix, y, rng = _problem(schema)
    cofactor_terms(matrix, y)
    y[::3] += 2.0
    _assert_terms_equal(cofactor_terms(matrix, y), _recompute(matrix, y))
    successor = matrix.apply_delta(0, _delta(rng, matrix, 0))
    y[1] -= 7.0
    _assert_terms_equal(cofactor_terms(successor, y), _recompute(successor, y))
    assert patches == []


@pytest.mark.parametrize("schema", sorted(SCHEMAS))
def test_a_rebuilt_matrix_recomputes(schema, patches):
    matrix, y, rng = _problem(schema)
    cofactor_terms(matrix, y)
    successor = matrix.apply_delta(0, _delta(rng, matrix, 0))
    _assert_terms_equal(cofactor_terms(_rebuilt(successor), y), _recompute(successor, y))
    assert patches == []


@pytest.mark.parametrize("schema", sorted(SCHEMAS))
@pytest.mark.parametrize("view", ["streamed", "n_jobs"])
def test_streamed_and_n_jobs_operands_share_the_matrix_terms(schema, view, patches):
    matrix, y, rng = _problem(schema)

    def terms(m):
        if view == "streamed":
            return cofactor_terms(m.stream(batch_rows=40), y)
        return cofactor_terms(m, y, n_jobs=2)

    held = terms(matrix)
    assert held[0] is matrix._terms.held[1]
    successor = matrix.apply_delta(0, _delta(rng, matrix, 0))
    _assert_terms_equal(terms(successor), _recompute(successor, y))
    assert patches == ["crossprod", "tlmm"]
    # A patched refit builds no shards.
    assert getattr(successor, "_shard_views", None) is None


@pytest.mark.parametrize("schema", sorted(SCHEMAS))
def test_a_sharded_operand_computes_afresh(schema, patches):
    """Shards cut by the caller are an operand like any other: the terms are
    computed over them and held nowhere."""
    matrix, y, rng = _problem(schema)
    cofactor_terms(matrix, y)
    successor = matrix.apply_delta(0, _delta(rng, matrix, 0))
    _assert_terms_equal(cofactor_terms(successor.shard(2, pool="thread"), y),
                        _recompute(successor, y))
    assert successor._terms is None and successor._lineage is not None
    assert patches == []


def test_transposed_or_scaled_views_compute_afresh(patches):
    matrix, y, rng = _problem("star")
    cofactor_terms(matrix, y)
    successor = matrix.apply_delta(0, _delta(rng, matrix, 0))
    scaled = successor.stream(batch_rows=40) * 2.0
    gram, xty = cofactor_terms(scaled, y)
    expected = _recompute(successor, y)
    assert np.array_equal(gram, 4.0 * expected[0]) and np.array_equal(xty, 2.0 * expected[1])
    dense = successor.to_dense()
    for transposed in (successor.stream(batch_rows=40).T, successor.shard(2).T, successor.T):
        columns = _ints(rng, (dense.shape[1], 1))
        gram, xty = cofactor_terms(transposed, columns)
        assert np.array_equal(gram, dense @ dense.T) and np.array_equal(xty, dense @ columns)
    assert successor._terms is None and successor._lineage is not None and patches == []
    # A transposed matrix holds nothing, so its successor has nothing to patch.
    transposed = successor.T
    cofactor_terms(transposed, columns)
    following = transposed.apply_delta(0, _delta(rng, successor, 0))
    dense = following.T.to_dense()
    gram, xty = cofactor_terms(following, columns)
    assert np.array_equal(gram, dense @ dense.T) and np.array_equal(xty, dense @ columns)
    assert patches == []


def _nonzero_ints(rng, shape) -> np.ndarray:
    values = _ints(rng, shape)
    values[values == 0] = 1.0
    return values


def _float32_tables(matrix, rng):
    """Float32 tables, and deltas that float32 storage rounds: ``k + 2^-30``
    is stored as ``k``."""
    entity = None if matrix.entity is None else matrix.entity.astype(np.float32)
    tables = NormalizedMatrix(entity, matrix.indicators,
                              [a.astype(np.float32) for a in matrix.attributes])
    return tables, lambda rng, shape: _nonzero_ints(rng, shape) + 2.0 ** -30


def _int_sparse_tables(matrix, rng):
    """Integer CSR tables, and deltas that integer storage truncates: ``k + 0.5``
    is stored as ``k``."""
    tables = NormalizedMatrix(matrix.entity, matrix.indicators,
                              [sp.csr_matrix(a.astype(np.int64)) for a in matrix.attributes])
    return tables, lambda rng, shape: _nonzero_ints(rng, shape) + 0.5


TABLES = {"float64": lambda matrix, rng: (matrix, _ints),
          "float32": _float32_tables, "int_sparse": _int_sparse_tables}


@pytest.mark.parametrize("tables", sorted(TABLES))
@pytest.mark.parametrize("schema", sorted(SCHEMAS))
def test_refits_equal_fits_on_the_rebuilt_matrix(schema, tables):
    """Refits patch from the rows the successor stores, so a table that
    rounds the delta's values still matches the rebuilt matrix bit for bit."""
    matrix, y, rng = _problem(schema)
    matrix, new_values = TABLES[tables](matrix, rng)

    def fits(m):
        gd = LinearRegressionGD(max_iter=5, step_size=1e-4, engine="auto")
        gd.planner = CofactorPlanner()
        gd.fit(m, y)
        assert gd.plan_.engine == "cofactor"
        cofactor = LinearRegressionCofactor(max_iter=5, step_size=1e-2).fit(m, y)
        return gd.coef_, cofactor.coef_, cofactor.cofactor_

    fits(matrix)
    for step in range(3):
        table_index = step % matrix.num_joins
        matrix = matrix.apply_delta(table_index,
                                    _delta(rng, matrix, table_index, new_values))
        for actual, expected in zip(fits(matrix), fits(_rebuilt(matrix))):
            assert np.array_equal(actual, expected)


def test_float_drift_after_200_patched_refits():
    def floats(rng, shape):
        return rng.standard_normal(shape)

    matrix, y, rng = _problem("snowflake", floats)
    cofactor_terms(matrix, y)
    for step in range(200):
        table_index = step % matrix.num_joins
        matrix = matrix.apply_delta(table_index, _delta(rng, matrix, table_index, floats))
        terms = cofactor_terms(matrix, y)
    assert matrix._terms.held is not None
    for actual, expected in zip(terms, _recompute(matrix, y)):
        scale = np.max(np.abs(expected))
        assert np.max(np.abs(actual - expected)) <= 1e-10 * scale


def test_a_successor_never_keeps_its_predecessor_alive():
    matrix, y, rng = _problem("star")
    cofactor_terms(matrix, y)
    predecessor = weakref.ref(matrix)
    slot = weakref.ref(matrix._terms)
    successor = matrix.apply_delta(0, _delta(rng, matrix, 0))
    del matrix
    assert predecessor() is None
    # The lineage holds the slot until the successor's first co-factor fit.
    assert slot() is not None
    cofactor_terms(successor, y)
    assert slot() is None


def test_a_held_slot_dies_with_its_matrix():
    matrix, y, _ = _problem("snowflake")
    cofactor_terms(matrix.stream(batch_rows=40), y)
    slot, gram = weakref.ref(matrix._terms), weakref.ref(matrix._terms.held[1])
    del matrix
    assert slot() is None and gram() is None


def test_refresh_then_fit_cycles_hold_memory_flat():
    """200 refresh-then-fit cycles keep one slot for the live matrix: the
    traced memory grows by far less than a slot per cycle would add."""
    rng = np.random.default_rng(7)
    base = _snowflake(rng)
    matrix = NormalizedMatrix(_ints(rng, (base.shape[0], 10)), base.indicators,
                              [_ints(rng, (r.shape[0], 12)) for r in base.attributes])
    y = _ints(rng, (matrix.shape[0], 1))
    deltas = [_delta(rng, matrix, 0) for _ in range(2)]
    # Each delta is followed by its inverse, so the data never drifts.
    cycle = [d for delta in deltas
             for d in (delta, MatrixDelta(delta.rows, delta.new, delta.old, delta.num_rows))]

    def run(cycles):
        nonlocal matrix
        for step in range(cycles):
            matrix = matrix.apply_delta(0, cycle[step % len(cycle)])
            gram, xty = cofactor_terms(matrix, y)
        return gram.nbytes + xty.nbytes

    slot_bytes = run(100)
    tracemalloc.start()
    try:
        gc.collect()
        early, _ = tracemalloc.get_traced_memory()
        run(200)
        gc.collect()
        late, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert late - early < 10 * slot_bytes


# -- the Gram patch's cross blocks ---------------------------------------------

@pytest.mark.parametrize("schema", sorted(SCHEMAS))
def test_cross_block_code_pairs_equal_the_sparse_product(schema):
    """``K_k[:, ρ]^T K_j`` counted from the codes of the rows that reference
    ρ equals the SciPy product of the column selection and ``K_j``."""
    matrix, _, rng = _problem(schema)
    for indicator_k in matrix.indicators:
        rows = np.sort(rng.choice(indicator_k.shape[1], size=4, replace=False))
        fact_rows, positions, _ = delta_rules.route(indicator_k, rows)
        selected = indicator_k.sparse()[:, rows]
        for indicator_j in matrix.indicators:
            counts = _code_pair_counts(positions, indicator_j.codes[fact_rows],
                                       rows.size, indicator_j.shape[1])
            expected = (selected.T @ indicator_j.sparse()).toarray()
            assert np.array_equal(to_dense(counts), expected)


# -- routing through the reverse index ----------------------------------------

def _with_unreferenced_columns(indicator, rng):
    """*indicator* without the fact rows of three of its columns, which then
    no fact row references."""
    dropped = rng.choice(indicator.shape[1], size=3, replace=False)
    kept = np.flatnonzero(~np.isin(indicator.codes, dropped))
    return indicator[kept, :], dropped


@pytest.mark.parametrize("schema", sorted(SCHEMAS))
def test_routing_equals_the_nonzeros_of_the_column_selection(schema):
    """``route`` lists the nonzeros of ``K_k[:, ρ]`` column by column, rows
    increasing, for changed rows nobody references (count 0) and for a ρ
    that covers every code; the routed sums equal ``K_k[:, ρ]^T Z``."""
    matrix, _, rng = _problem(schema)
    for full in matrix.indicators:
        indicator, dropped = _with_unreferenced_columns(full, rng)
        some = rng.choice(indicator.shape[1], size=4, replace=False)
        for rows in (np.unique(np.concatenate([some, dropped[:2]])),
                     np.arange(indicator.shape[1])):
            fact_rows, positions, counts = delta_rules.route(indicator, rows)
            selected = indicator.sparse()[:, rows].tocsc()
            selected.sort_indices()
            sizes = np.diff(selected.indptr)
            assert np.array_equal(counts, sizes)
            assert np.array_equal(fact_rows, selected.indices)
            assert np.array_equal(positions, np.repeat(np.arange(rows.size), sizes))
            assert np.all(counts[np.isin(rows, dropped)] == 0)
            values = _ints(rng, (indicator.shape[0], 3))
            for z in (values, sp.csr_matrix(values)):
                routed = delta_rules._routed_sums(z, fact_rows, counts)
                assert np.array_equal(routed, (selected.T @ values))
        assert indicator.T.reverse_index() is indicator.reverse_index()


def test_patched_refit_at_scale_touches_only_the_delta(monkeypatch, patches):
    """At ``n`` = 100k, a patched refit builds no CSR of any indicator, hashes
    nothing, and its traced peak stays below one ``n``-row float64 array
    (the reverse index, 8 bytes per row, is built by the first patched refit
    and shared by every successor)."""
    rng = np.random.default_rng(28)
    n, n_store, n_region, n_product = 100_000, 2_000, 50, 300
    store = indicator_from_labels(_labels(rng, n, n_store), num_columns=n_store)
    region = store @ indicator_from_labels(_labels(rng, n_store, n_region),
                                           num_columns=n_region)
    product = indicator_from_labels(_labels(rng, n, n_product), num_columns=n_product)
    matrix = NormalizedMatrix(_ints(rng, (n, 3)), [store, region, product],
                              [_ints(rng, (n_store, 6)), _ints(rng, (n_region, 2)),
                               _ints(rng, (n_product, 4))])
    y = _ints(rng, (n, 1))
    cofactor_terms(matrix, y)
    # The full computation's scatters build CSR forms; a patch must not.
    for indicator in matrix.indicators:
        indicator._csr = None
    hashed = []
    for name in ("new", "md5", "sha1", "sha256", "blake2b"):
        def recording(*args, _name=name, _hash=getattr(hashlib, name), **kwargs):
            hashed.append(_name)
            return _hash(*args, **kwargs)

        monkeypatch.setattr(hashlib, name, recording)

    def refresh(m):
        rows = rng.choice(n_store, size=100, replace=False)
        return m.apply_delta(0, MatrixDelta.upsert(rows, _ints(rng, (100, 6)),
                                                   m.attributes[0]))

    matrix = refresh(matrix)
    cofactor_terms(matrix, y)
    matrix = refresh(matrix)
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        terms = cofactor_terms(matrix, y)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert patches == ["crossprod", "tlmm"] * 2
    assert hashed == []
    assert all(indicator._csr is None for indicator in matrix.indicators)
    assert peak - before < y.nbytes
    _assert_terms_equal(terms, _recompute(matrix, y))
