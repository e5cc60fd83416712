"""Oracle and behaviour tests for the fused kernel layer.

The fused kernels (:mod:`repro.la.kernels`) are the execution layer behind
every factorized rewrite, so their contract is strict:

* every kernel computes what its primitive-chain oracle
  (``tests/la/kernel_oracles.py``) computes, on star, M:N and snowflake
  schemas, dense and sparse bases, float32 and float64, empty attribute
  tables and zero-row batches -- including both sides of every path a kernel
  chooses by its input;
* every call counts in ``repro_kernel_dispatch_total{kernel}`` while
  observability is enabled;
* operand dtypes survive the rewrite layer (the float32 round-trip pin);
* an indicator's codes are computed once, owned by the indicator and freed
  with it.
"""

from __future__ import annotations

import contextlib
import gc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

from repro import obs
from repro.core.delta import MatrixDelta
from repro.core.indicator import indicator_codes
from repro.core import MNNormalizedMatrix
from repro.core.normalized_matrix import NormalizedMatrix
from repro.la import kernels
from repro.la.indicator import Indicator
from repro.la.ops import indicator_from_labels
from tests.la.kernel_oracles import ORACLES, oracle_kernels, swap_kernels

ATOL = 1e-10


def _labels(rng, n_rows: int, n_ref: int) -> np.ndarray:
    """Surjective foreign-key labels (every attribute row referenced once)."""
    labels = np.concatenate([np.arange(n_ref), rng.integers(0, n_ref, size=n_rows - n_ref)])
    rng.shuffle(labels)
    return labels


def _star(seed: int, dtype=np.float64, sparse_bases: bool = False,
          n_s: int = 23, d_r: int = 4) -> NormalizedMatrix:
    rng = np.random.default_rng(seed)
    entity = rng.standard_normal((n_s, 3)).astype(dtype)
    if sparse_bases:
        entity = sp.csr_matrix(entity).astype(dtype)
    indicators, attributes = [], []
    for n_r in (7, 5):
        attribute = rng.standard_normal((n_r, d_r)).astype(dtype)
        if sparse_bases:
            attribute = sp.csr_matrix(attribute).astype(dtype)
        indicators.append(indicator_from_labels(_labels(rng, n_s, n_r), num_columns=n_r))
        attributes.append(attribute)
    return NormalizedMatrix(entity, indicators, attributes)


def _mn(seed: int, dtype=np.float64) -> NormalizedMatrix:
    rng = np.random.default_rng(seed)
    n_out = 19
    indicators, attributes = [], []
    for n_r, width in ((6, 3), (4, 2)):
        attributes.append(rng.standard_normal((n_r, width)).astype(dtype))
        indicators.append(indicator_from_labels(_labels(rng, n_out, n_r), num_columns=n_r))
    return MNNormalizedMatrix(indicators, attributes)


def _snowflake(seed: int) -> NormalizedMatrix:
    rng = np.random.default_rng(seed)
    n_s = 21
    entity = rng.standard_normal((n_s, 2))
    hops = []
    rows = n_s
    for n_next in (8, 3):
        hops.append(indicator_from_labels(_labels(rng, rows, n_next), num_columns=n_next))
        rows = n_next
    attribute = rng.standard_normal((rows, 3))
    return NormalizedMatrix(entity, [hops[0] @ hops[1]], [attribute])


MATRICES = {
    "star-dense": lambda seed: _star(seed),
    "star-sparse": lambda seed: _star(seed, sparse_bases=True),
    "star-f32": lambda seed: _star(seed, dtype=np.float32),
    "star-empty-attr": lambda seed: _star(seed, d_r=0),
    "mn": lambda seed: _mn(seed),
    "snowflake": lambda seed: _snowflake(seed),
}


# -- kernel-vs-oracle equivalence ---------------------------------------------

def _as_array(value) -> np.ndarray:
    if hasattr(value, "toarray"):  # sparse matrices and indicators
        return value.toarray()
    return np.asarray(value, dtype=np.float64)


def _assert_close(actual, expected, where: str) -> None:
    if isinstance(expected, tuple):
        for a, e in zip(actual, expected):
            _assert_close(a, e, where)
        return
    actual, expected = _as_array(actual), _as_array(expected)
    assert actual.shape == expected.shape, where
    assert np.allclose(actual, expected, atol=ATOL), (
        f"{where}: max abs diff {np.abs(actual - expected).max():.3e}")


def _copies(args) -> list:
    """Inputs for the oracle: the accumulating kernels write into ndarrays."""
    return [a.copy() if isinstance(a, np.ndarray) else a for a in args]


@contextlib.contextmanager
def checked_kernels(where: str):
    """Run every kernel call against its oracle on copies of the same inputs.

    Yields the set of kernel names called inside the block.
    """
    called = set()

    def checked(name, kernel):
        def run(*args):
            expected = ORACLES[name](*_copies(args))
            actual = kernel(*args)
            _assert_close(actual, expected, f"{where}/{name}")
            called.add(name)
            return actual
        return run

    with swap_kernels(checked):
        yield called


def _operator_snapshot(matrix, x, w, y, w0, rows, weight_slices) -> dict:
    """Every Table-1 operator plus the streaming and serving kernel calls."""
    labels = np.sign(y) + (y == 0)
    partials = [kernels.partial_scores(r, ws)
                for r, ws in zip(matrix.attributes, weight_slices)]
    codes = [indicator_codes(k) for k in matrix.indicators]
    step_w, residual = kernels.sgd_step(matrix, y, w0.copy(), 1e-3)
    logistic_w, scores = kernels.logistic_sgd_step(matrix, labels, w0.copy(), 1e-3, "exact")
    return {
        "lmm": np.asarray(matrix @ x, dtype=np.float64),
        "rmm": np.asarray(w @ matrix, dtype=np.float64),
        "tlmm": np.asarray(matrix.T @ y, dtype=np.float64),
        "crossprod": np.asarray(matrix.crossprod(), dtype=np.float64),
        "gram": np.asarray(matrix.T.crossprod(), dtype=np.float64),
        "rowsums": np.asarray(matrix.rowsums(), dtype=np.float64),
        "colsums": np.asarray(matrix.colsums(), dtype=np.float64),
        "total": np.asarray(matrix.total_sum(), dtype=np.float64),
        "take_rows": np.asarray(matrix.take_rows(rows) @ x, dtype=np.float64),
        "sgd": (step_w, residual),
        "logistic": (logistic_w, scores),
        "serve": kernels.gather_dot(np.zeros((matrix.shape[0], 2)), partials, codes),
    }


@pytest.mark.parametrize("schema", sorted(MATRICES))
@pytest.mark.parametrize("seed", range(5))
def test_fused_sets_agree_on_table1_operators(schema, seed):
    """Every kernel call matches its oracle, and so does every operator result."""
    matrix = MATRICES[schema](seed)
    dense = np.asarray(matrix.to_dense(), dtype=np.float64)
    n, d = dense.shape
    rng = np.random.default_rng(seed + 99)
    inputs = dict(
        x=rng.standard_normal((d, 2)),
        w=rng.standard_normal((2, n)),
        y=rng.standard_normal((n, 1)),
        w0=rng.standard_normal((d, 1)),
        rows=rng.integers(0, n, size=7),
        weight_slices=[rng.standard_normal((r.shape[1], 2)) for r in matrix.attributes],
    )

    with oracle_kernels():
        reference = _operator_snapshot(matrix, **inputs)
    # The oracles must match the materialized dense computation.
    assert np.allclose(reference["lmm"], dense @ inputs["x"], atol=1e-6)
    assert np.allclose(reference["crossprod"], dense.T @ dense, atol=1e-5)
    with checked_kernels(f"[seed={seed}] {schema}") as called:
        result = _operator_snapshot(matrix, **inputs)
    expected_calls = set(kernels.KERNEL_NAMES)
    if len(matrix.attributes) < 2:
        expected_calls.discard("cross_block")  # one table: no off-diagonal block
    if matrix.entity is None:
        expected_calls.discard("entity_cross_block")  # M:N has no entity table
    assert called == expected_calls
    for op, expected in reference.items():
        _assert_close(result[op], expected, f"[seed={seed}] {schema}/{op}")


@pytest.mark.parametrize("seed", range(3))
def test_fused_sets_agree_on_zero_row_batches(seed):
    """take_rows with an empty index set yields an empty factorized batch."""
    matrix = _star(seed)
    empty = np.array([], dtype=np.int64)
    with checked_kernels(f"[seed={seed}] empty batch"):
        batch = matrix.take_rows(empty)
        assert batch.shape[0] == 0
        result = np.asarray(batch @ np.ones((matrix.shape[1], 1)))
    assert result.shape == (0, 1)


@pytest.mark.parametrize("seed", range(3))
def test_take_indicator_rows_matches_fancy_indexing(seed):
    """The row take gathers codes and equals the CSR fancy-indexing slice."""
    rng = np.random.default_rng(seed)
    indicator = indicator_from_labels(_labels(rng, 31, 9), num_columns=9)
    indices = rng.integers(0, 31, size=12)
    sliced = kernels.take_indicator_rows(indicator, indices)
    assert isinstance(sliced, Indicator)
    assert np.array_equal(sliced.codes, indicator.codes[indices])
    assert np.array_equal(sliced.toarray(), indicator.tocsr()[indices, :].toarray())


@pytest.mark.parametrize("seed", range(3))
def test_sgd_kernels_agree_across_sets(seed):
    """The fused SGD steps match the dense oracle on linear and logistic updates."""
    matrix = _star(seed)
    rng = np.random.default_rng(seed + 7)
    y = rng.standard_normal((matrix.shape[0], 1))
    labels = np.sign(y) + (y == 0)
    w0 = rng.standard_normal((matrix.shape[1], 1))
    for update in ("exact", "paper"):
        _assert_close(kernels.logistic_sgd_step(matrix, labels, w0.copy(), 1e-3, update),
                      ORACLES["logistic_sgd_step"](matrix, labels, w0.copy(), 1e-3, update),
                      f"logistic/{update}")
    _assert_close(kernels.sgd_step(matrix, y, w0.copy(), 1e-3),
                  ORACLES["sgd_step"](matrix, y, w0.copy(), 1e-3), "sgd")


def test_gather_dot_matches_reference():
    """The serving gather kernel sums base + per-table partial rows."""
    rng = np.random.default_rng(0)
    base = rng.standard_normal((11, 2))
    partials = [rng.standard_normal((5, 2)), rng.standard_normal((3, 2))]
    code_rows = [rng.integers(0, 5, size=11), rng.integers(0, 3, size=11)]
    _assert_close(kernels.gather_dot(base, partials, code_rows),
                  ORACLES["gather_dot"](base, partials, code_rows), "gather_dot")


# -- both sides of every input-dependent kernel path --------------------------

def _check(name: str, *args) -> None:
    expected = ORACLES[name](*_copies(args))
    _assert_close(getattr(kernels, name)(*args), expected, name)


class TestKernelPaths:
    @pytest.mark.parametrize("n_rows, n_i, n_j", [(60, 5, 4), (10, 10, 20)])
    @pytest.mark.parametrize("sparse_attributes", [False, True])
    def test_cross_block_both_sides_of_density_limit(self, n_rows, n_i, n_j,
                                                     sparse_attributes):
        rng = np.random.default_rng(n_rows)
        k_i = indicator_from_labels(_labels(rng, n_rows, n_i), num_columns=n_i)
        k_j = indicator_from_labels(rng.integers(0, n_j, size=n_rows), num_columns=n_j)
        r_i, r_j = rng.standard_normal((n_i, 3)), rng.standard_normal((n_j, 2))
        if sparse_attributes:
            r_i, r_j = sp.csr_matrix(r_i), sp.csr_matrix(r_j)
        sparse_path = n_i * n_j > kernels._CROSSING_DENSITY_LIMIT * n_rows
        assert sparse_path == (n_rows == 10)
        _check("cross_block", k_i, k_j, r_i, r_j, np.dtype(np.float64))

    @pytest.mark.parametrize("sparse_x", [False, True])
    def test_scatter_right_dense_and_sparse_x(self, sparse_x):
        rng = np.random.default_rng(1)
        indicator = indicator_from_labels(_labels(rng, 17, 6), num_columns=6)
        attribute = rng.standard_normal((6, 3))
        x = rng.standard_normal((2, 17))
        if sparse_x:
            x[x < 0.5] = 0.0
            x = sp.csr_matrix(x)
        _check("scatter_right", x, indicator, attribute, np.dtype(np.float64))

    @pytest.mark.parametrize("value", [1.0, 2.0])
    @pytest.mark.parametrize("num_clusters", [4, 200])
    @pytest.mark.parametrize("schema", ["star-dense", "star-f32", "snowflake"])
    def test_scatter_right_transposed_indicator_x(self, schema, num_clusters, value):
        """X = K_A^T scatters as a code-pair histogram (past the density limit,
        as the sparse product), on single- and two-hop indicators; a sparse
        matrix with one stored 2.0 per column is no indicator and takes the
        general sparse path."""
        matrix = MATRICES[schema](5)
        n = matrix.shape[0]
        rng = np.random.default_rng(5)
        k_a = indicator_from_labels(rng.integers(0, num_clusters, size=n),
                                    num_columns=num_clusters)
        x = k_a.T if value == 1.0 else (value * k_a.tocsr()).T
        assert isinstance(x, Indicator) == (value == 1.0)
        dtype = kernels.result_dtype(*matrix.attributes)
        for indicator, attribute in zip(matrix.indicators, matrix.attributes):
            dense_side = (num_clusters * indicator.shape[1]
                          <= kernels._CROSSING_DENSITY_LIMIT * n)
            assert dense_side == (num_clusters == 4)
            _check("scatter_right", x, indicator, attribute, dtype)

    @pytest.mark.parametrize("sparse_entity", [False, True])
    def test_entity_cross_block_dense_and_sparse_entity(self, sparse_entity):
        rng = np.random.default_rng(2)
        indicator = indicator_from_labels(_labels(rng, 19, 5), num_columns=5)
        attribute = rng.standard_normal((5, 3))
        entity = rng.standard_normal((19, 4))
        if sparse_entity:
            entity[entity < 0.5] = 0.0
            entity = sp.csr_matrix(entity)
        _check("entity_cross_block", entity, indicator, attribute, np.dtype(np.float64))

    @pytest.mark.parametrize("path", ["cross_block", "scatter_right",
                                      "scatter_right_transposed",
                                      "entity_cross_block"])
    def test_sparse_paths_reach_chains_through_codes(self, path):
        """Every sparse-product path takes a two-hop alias's indicator -- its
        composed codes -- through its CSR form and matches the oracle."""
        rng = np.random.default_rng(4)
        n = 10
        chain = (indicator_from_labels(_labels(rng, n, n), num_columns=n)
                 @ indicator_from_labels(_labels(rng, n, n), num_columns=n))
        attribute = rng.standard_normal((n, 3))
        f64 = np.dtype(np.float64)
        if path == "cross_block":
            # 10 x 20 code pairs exceed the density limit at 10 rows.
            other = indicator_from_labels(rng.integers(0, 20, size=n), num_columns=20)
            args = (chain, other, attribute, rng.standard_normal((20, 2)), f64)
        elif path == "scatter_right":
            x = sp.csr_matrix(np.where(rng.random((2, n)) < 0.5, 1.5, 0.0))
            args = (x, chain, attribute, f64)
        elif path == "scatter_right_transposed":
            # K_A^T with 200 clusters: past the density limit.
            x = indicator_from_labels(rng.integers(0, 200, size=n), num_columns=200).T
            args = (x, chain, attribute, f64)
        else:
            entity = sp.csr_matrix(np.where(rng.random((n, 4)) < 0.5, 2.0, 0.0))
            args = (entity, chain, attribute, f64)
        name = "scatter_right" if path.startswith("scatter_right") else path
        expected = ORACLES[name](*_copies(args))
        _assert_close(getattr(kernels, name)(*args), expected, path)

    @pytest.mark.parametrize("kind", ["chain", "dense"])
    def test_take_indicator_rows_chain_and_dense_indicators(self, kind):
        rng = np.random.default_rng(3)
        indicator = indicator_from_labels(_labels(rng, 23, 8), num_columns=8)
        if kind == "chain":
            hop = indicator_from_labels(_labels(rng, 8, 3), num_columns=3)
            indicator = indicator @ hop
        elif kind == "dense":
            indicator = indicator.toarray()
        indices = rng.integers(0, 23, size=9)
        _check("take_indicator_rows", indicator, indices)


# -- dispatch counter ---------------------------------------------------------

def test_every_kernel_call_is_counted_by_name():
    family = obs.REGISTRY.get("repro_kernel_dispatch_total")
    assert family.label_names == ("kernel",)

    def count() -> float:
        return sum(s.value for key, s in family.series() if key == ("gather_rows",))

    rng = np.random.default_rng(4)
    indicator = indicator_from_labels(_labels(rng, 9, 4), num_columns=4)
    attribute = rng.standard_normal((4, 2))
    assert not obs.enabled()
    before = count()
    kernels.gather_rows(indicator, attribute)  # observability off: not counted
    obs.enable()
    try:
        kernels.gather_rows(indicator, attribute)
        kernels.gather_rows(indicator, attribute)
    finally:
        obs.disable()
    assert count() - before == 2


# -- dtype preservation (float32 round trip) ----------------------------------

class TestDtypePreservation:
    def test_float32_lmm_round_trip(self):
        matrix = _star(3, dtype=np.float32)
        x = np.random.default_rng(4).standard_normal((matrix.shape[1], 2)).astype(np.float32)
        result = np.asarray(matrix @ x)
        assert result.dtype == np.float32
        dense = np.asarray(matrix.to_dense(), dtype=np.float32)
        assert np.allclose(result, dense @ x, atol=1e-4)

    def test_float32_rmm_round_trip(self):
        matrix = _star(5, dtype=np.float32)
        w = np.random.default_rng(6).standard_normal((2, matrix.shape[0])).astype(np.float32)
        result = np.asarray(w @ matrix)
        assert result.dtype == np.float32

    def test_float32_crossprod_round_trip(self):
        matrix = _star(7, dtype=np.float32)
        # A row delta must not upcast the patched attribute table either.
        delta = MatrixDelta.upsert([0, 3], np.ones((2, matrix.attributes[1].shape[1])),
                                   matrix.attributes[1])
        for operand in (matrix, matrix.apply_delta(1, delta)):
            gram = np.asarray(operand.crossprod())
            assert gram.dtype == np.float32
            dense = np.asarray(operand.to_dense(), dtype=np.float32)
            assert np.allclose(gram, dense.T @ dense, atol=1e-3)

    def test_float32_mn_round_trip(self):
        matrix = _mn(8, dtype=np.float32)
        x = np.random.default_rng(9).standard_normal((matrix.shape[1], 1)).astype(np.float32)
        assert np.asarray(matrix @ x).dtype == np.float32
        assert np.asarray(matrix.crossprod()).dtype == np.float32

    def test_mixed_dtypes_upcast_to_float64(self):
        matrix = _star(10, dtype=np.float32)
        x64 = np.random.default_rng(11).standard_normal((matrix.shape[1], 1))
        assert np.asarray(matrix @ x64).dtype == np.float64

    def test_result_dtype_rules(self):
        f32 = np.zeros(2, dtype=np.float32)
        f64 = np.zeros(2, dtype=np.float64)
        i64 = np.zeros(2, dtype=np.int64)
        assert kernels.result_dtype(f32, f32) == np.float32
        assert kernels.result_dtype(f32, f64) == np.float64
        assert kernels.result_dtype(i64) == np.float64  # non-float promotes
        assert kernels.result_dtype() == np.float64
        assert kernels.result_dtype(None, f32) == np.float32


# -- indicator codes ------------------------------------------------------------

class TestCodesMemoization:
    def test_codes_cached_per_indicator_object(self):
        rng = np.random.default_rng(0)
        indicator = indicator_from_labels(_labels(rng, 17, 5), num_columns=5)
        first = indicator_codes(indicator)
        second = indicator_codes(indicator)
        assert first is second
        assert not first.flags.writeable

    def test_kernels_index_with_the_writable_array(self):
        """NumPy copies a read-only index on every take/bincount; the kernels
        index with the indicator's writable array, callers get a read-only
        view of it."""
        rng = np.random.default_rng(6)
        indicator = indicator_from_labels(_labels(rng, 17, 5), num_columns=5)
        shared = indicator._codes
        assert shared.flags.writeable
        assert indicator.T._codes is shared
        view = indicator_codes(indicator)
        assert not view.flags.writeable and view.base is shared

    def test_codes_values_match_argmax(self):
        rng = np.random.default_rng(1)
        labels = _labels(rng, 17, 5)
        indicator = indicator_from_labels(labels, num_columns=5)
        assert np.array_equal(indicator_codes(indicator), labels)

    def test_chain_codes_compose_hops(self):
        rng = np.random.default_rng(2)
        hop1 = indicator_from_labels(_labels(rng, 12, 6), num_columns=6)
        hop2 = indicator_from_labels(_labels(rng, 6, 3), num_columns=3)
        chain = hop1 @ hop2
        expected = indicator_codes(hop2)[indicator_codes(hop1)]
        assert np.array_equal(indicator_codes(chain), expected)

    def test_cache_evicts_dead_indicators(self):
        """The codes (and the lazily built CSR) are owned by the indicator,
        so nothing outlives it."""
        rng = np.random.default_rng(3)
        k = indicator_from_labels(_labels(rng, 9, 4), num_columns=4)
        codes = weakref.ref(k._codes)
        csr = weakref.ref(k.sparse())
        indicator_codes(k)
        del k
        gc.collect()
        assert codes() is None and csr() is None

    def test_scorer_and_zone_map_share_cached_codes(self):
        """The serving scorer and the zone-map index hit the same cache entry."""
        rng = np.random.default_rng(5)
        indicator = indicator_from_labels(_labels(rng, 13, 4), num_columns=4)
        assert indicator_codes(indicator) is indicator_codes(indicator)
