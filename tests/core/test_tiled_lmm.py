"""The row-tiled LMM and the CSR-binned RMM against untiled references.

An LMM over more than ``TILE_ROWS`` rows runs tile by tile
(:func:`repro.core.rewrite.multiplication.lmm_tiles`), and an RMM whose
indicator has at least ``_CSR_SCATTER_MIN_ROWS`` rows bins a multi-row ``X``
through the indicator's CSR form.  On integer-valued data every sum is
exact, so each must equal the materialized product bit for bit, at the tile
boundaries, without an entity table (M:N), with a sparse entity (which runs
the whole product at once) and in float32.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.normalized_matrix import NormalizedMatrix
from repro.core.rewrite import multiplication
from repro.core.rewrite.multiplication import TILE_ROWS, lmm_star, lmm_tiles, rmm_star
from repro.la import kernels
from repro.la.ops import indicator_from_labels

ROW_COUNTS = [1, TILE_ROWS - 1, TILE_ROWS, TILE_ROWS + 1, 3 * TILE_ROWS + 5]


def _integer_matrix(n: int, entity: str = "dense", dtype=np.float64,
                    seed: int = 0) -> NormalizedMatrix:
    """Small-integer bases joined by two indicators, so every product is exact."""
    rng = np.random.default_rng(seed)
    attributes, indicators = [], []
    for n_r, d_r in ((7, 3), (5, 2)):
        n_r = min(n_r, n)  # every attribute row referenced
        labels = np.concatenate([np.arange(n_r), rng.integers(0, n_r, size=n - n_r)])
        attributes.append(rng.integers(-4, 5, size=(n_r, d_r)).astype(dtype))
        indicators.append(indicator_from_labels(rng.permutation(labels), num_columns=n_r))
    s = None
    if entity != "none":
        s = rng.integers(-4, 5, size=(n, 4)).astype(dtype)
        if entity == "sparse":
            s[s < 2] = 0
            s = sp.csr_matrix(s)
    return NormalizedMatrix(s, indicators, attributes)


def _operand(rows: int, cols: int, dtype=np.float64, seed: int = 1) -> np.ndarray:
    return np.random.default_rng(seed).integers(-3, 4, size=(rows, cols)).astype(dtype)


def _lmm(matrix: NormalizedMatrix, x: np.ndarray) -> np.ndarray:
    return lmm_star(matrix.entity, matrix.indicators, matrix.attributes, x)


@pytest.mark.parametrize("n", ROW_COUNTS)
@pytest.mark.parametrize("entity", ["dense", "none", "sparse"])
@pytest.mark.parametrize("m", [1, 3])
def test_tiled_lmm_equals_the_materialized_product(n, entity, m):
    matrix = _integer_matrix(n, entity)
    x = _operand(matrix.shape[1], m)
    expected = np.asarray(matrix.to_dense()) @ x
    np.testing.assert_array_equal(_lmm(matrix, x), expected)
    np.testing.assert_array_equal(matrix @ x, expected)


@pytest.mark.parametrize("n", ROW_COUNTS)
def test_tiles_cover_the_rows_in_order(n):
    matrix = _integer_matrix(n)
    x = _operand(matrix.shape[1], 2)
    expected = _lmm(matrix, x)
    bounds, parts = [], []
    for start, stop, tile in lmm_tiles(matrix.entity, matrix.indicators,
                                       matrix.attributes, x):
        bounds.append((start, stop))
        parts.append(tile.copy())  # the next tile overwrites the buffer
    stops = [stop for _, stop in bounds]
    assert [start for start, _ in bounds] == [0] + stops[:-1]
    assert stops[-1] == n
    assert all(stop - start <= TILE_ROWS for start, stop in bounds)
    assert len(bounds) == -(-n // TILE_ROWS)
    np.testing.assert_array_equal(np.vstack(parts), expected)


def test_tiles_fill_a_given_output():
    matrix = _integer_matrix(2 * TILE_ROWS + 3)
    x = _operand(matrix.shape[1], 2)
    out = np.full((matrix.shape[0], 2), np.nan)
    for start, stop, tile in lmm_tiles(matrix.entity, matrix.indicators,
                                       matrix.attributes, x, out=out):
        assert np.shares_memory(tile, out[start:stop])
    np.testing.assert_array_equal(out, _lmm(matrix, x))


def test_sparse_entity_runs_the_whole_product_at_once():
    matrix = _integer_matrix(3 * TILE_ROWS + 5, "sparse")
    x = _operand(matrix.shape[1], 2)
    tiles = list(lmm_tiles(matrix.entity, matrix.indicators, matrix.attributes, x))
    assert [(start, stop) for start, stop, _ in tiles] == [(0, matrix.shape[0])]


def test_small_products_are_computed_once_per_call(monkeypatch):
    """Each R_i X_i runs once, whatever the number of tiles."""
    matrix = _integer_matrix(3 * TILE_ROWS + 5)
    calls = []
    original = multiplication.matmul

    def counted(a, b):
        calls.append(a.shape)
        return original(a, b)

    monkeypatch.setattr(multiplication, "matmul", counted)
    _lmm(matrix, _operand(matrix.shape[1], 2))
    assert calls == [r.shape for r in matrix.attributes]


@pytest.mark.parametrize("n", [TILE_ROWS - 1, 3 * TILE_ROWS + 5])
def test_float32_tables_stay_float32(n):
    matrix = _integer_matrix(n, dtype=np.float32)
    x = _operand(matrix.shape[1], 3, dtype=np.float32)
    result = _lmm(matrix, x)
    assert result.dtype == np.float32
    np.testing.assert_array_equal(result, np.asarray(matrix.to_dense()) @ x)
    rmm = rmm_star(matrix.entity, matrix.indicators, matrix.attributes,
                   _operand(2, n, dtype=np.float32))
    assert rmm.dtype == np.float32


@pytest.mark.parametrize("n", [TILE_ROWS + 1, kernels._CSR_SCATTER_MIN_ROWS + 7])
@pytest.mark.parametrize("m", [1, 4])
@pytest.mark.parametrize("entity", ["dense", "none", "sparse"])
def test_rmm_equals_the_materialized_product(n, m, entity):
    """Both scatter paths: the CSR product for a transposed view of X (T^T W)
    above the CSR bound, bincount below it, for one row of X, or for a
    row-major X."""
    matrix = _integer_matrix(n, entity)
    w = _operand(n, m)
    dense = np.asarray(matrix.to_dense())
    for x in (w.T, np.ascontiguousarray(w.T)):
        np.testing.assert_array_equal(
            rmm_star(matrix.entity, matrix.indicators, matrix.attributes, x), w.T @ dense)
    np.testing.assert_array_equal(matrix.T @ w, dense.T @ w)


def test_csr_and_bincount_scatters_agree_bit_for_bit():
    """The two scatter paths add each code's columns in the same order, so
    they agree on arbitrary floats, not only on integers."""
    rng = np.random.default_rng(3)
    n = kernels._CSR_SCATTER_MIN_ROWS + 11
    indicator = indicator_from_labels(rng.integers(0, 97, size=n), num_columns=97)
    x = rng.standard_normal((n, 5)).T
    binned = np.vstack([np.bincount(indicator.codes, weights=row, minlength=97)
                        for row in x])
    np.testing.assert_array_equal(kernels._scatter_columns(x, indicator), binned)
