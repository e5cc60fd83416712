"""Surface tests for :class:`repro.la.indicator.Indicator`.

Every operation the rewrites use -- products on both sides with dense,
sparse and indicator operands, the transpose, row slices and takes, column
selection, aggregation, densification and the pickle round trip that ships
shards to worker processes -- is checked against the indicator's own
``tocsr()`` form on random codes, including 0 rows and 0 columns.
"""

import pickle

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ShapeError
from repro.la.indicator import Indicator
from repro.la.ops import indicator_from_labels, matmul

SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def indicators(draw, n_rows=None):
    """A random indicator, transposed (by ``.T`` or by the constructor's flag)
    two times in three; 0 columns force 0 rows."""
    if n_rows is None:
        n_cols = draw(st.integers(0, 6))
        n_rows = draw(st.integers(0, 12)) if n_cols else 0
    else:
        n_cols = draw(st.integers(1 if n_rows else 0, 6))
    codes = draw(st.lists(st.integers(0, max(n_cols - 1, 0)),
                          min_size=n_rows, max_size=n_rows))
    how = draw(st.sampled_from(["plain", ".T", "transposed=True"]))
    if how == "transposed=True":
        return Indicator(np.array(codes, dtype=np.int64), n_cols, transposed=True)
    indicator = Indicator(np.array(codes, dtype=np.int64), n_cols)
    return indicator.T if how == ".T" else indicator


def _dense(value) -> np.ndarray:
    return value.toarray() if hasattr(value, "toarray") else np.asarray(value)


def _same(actual, expected) -> None:
    assert sp.issparse(actual) == sp.issparse(expected)
    assert actual.shape == expected.shape
    np.testing.assert_array_equal(_dense(actual), _dense(expected))


@st.composite
def operands(draw, rows: int, cols: int, sparse=None):
    """A dense or CSR operand; *sparse* ``None`` draws which."""
    values = draw(st.lists(st.sampled_from([0.0, 1.0, -2.5]),
                           min_size=rows * cols, max_size=rows * cols))
    dense = np.array(values, dtype=np.float64).reshape(rows, cols)
    if sparse is None:
        sparse = draw(st.booleans())
    return sp.csr_matrix(dense) if sparse else dense


# -- structure -----------------------------------------------------------------

def _one_hot(k) -> np.ndarray:
    """The dense matrix *k* denotes, built from its codes alone."""
    n = k.codes.shape[0]
    dense = np.zeros((n, k.n_cols))
    dense[np.arange(n), k.codes] = 1.0
    return dense.T if k.transposed else dense


@given(indicators())
@SETTINGS
def test_shape_and_metadata_match_csr(k):
    oracle = k.tocsr()
    assert k.shape == oracle.shape and k.ndim == 2
    assert k.T.shape == oracle.T.shape and k.T.T.shape == k.shape
    assert k.dtype == oracle.dtype
    assert k.nnz == oracle.nnz  # one 1 per row of the untransposed form
    assert k.T.T.transposed == k.transposed
    assert (k.transposed and k.T.T.codes is k.T.codes) or k.T.T is k
    assert not k.codes.flags.writeable


@given(indicators())
@SETTINGS
def test_tocsr_and_toarray_respect_transpose(k):
    oracle = k.tocsr()
    assert sp.isspmatrix_csr(oracle) and sp.isspmatrix_csr(k.T.tocsr())
    np.testing.assert_array_equal(oracle.toarray(), _one_hot(k))
    np.testing.assert_array_equal(k.toarray(), _one_hot(k))
    np.testing.assert_array_equal(k.T.toarray(), _one_hot(k).T)
    np.testing.assert_array_equal(k.T.tocsr().toarray(), _one_hot(k).T)


@given(indicators(), st.sampled_from([None, 0, 1, -1]))
@SETTINGS
def test_sum_matches_csr(k, axis):
    expected = k.tocsr().sum(axis=axis)
    if axis is None:
        assert k.sum() == expected
    else:
        np.testing.assert_array_equal(k.sum(axis=axis), np.asarray(expected))


@given(indicators())
@SETTINGS
def test_pickle_round_trip(k):
    k.sparse()  # a built CSR is rebuilt on demand, not shipped
    copy = pickle.loads(pickle.dumps(k))
    assert isinstance(copy, Indicator)
    assert copy.shape == k.shape and copy.transposed == k.transposed
    np.testing.assert_array_equal(copy.codes, k.codes)
    assert copy._csr is None
    np.testing.assert_array_equal(copy.toarray(), k.toarray())


# -- products ------------------------------------------------------------------

def _check_right(k, right) -> None:
    _same(k @ right, k.tocsr() @ right)
    _same(matmul(k, right), matmul(k.tocsr(), right))


def _check_left(left, k) -> None:
    _same(left @ k, left @ k.tocsr())
    _same(matmul(left, k), matmul(left, k.tocsr()))


@given(st.data(), indicators(), st.integers(0, 3))
@SETTINGS
def test_dense_right_products_match_csr(data, k, width):
    _check_right(k, data.draw(operands(k.shape[1], width, sparse=False)))


@given(st.data(), indicators(), st.integers(0, 3))
@SETTINGS
def test_dense_left_products_match_csr(data, k, width):
    _check_left(data.draw(operands(width, k.shape[0], sparse=False)), k)


@given(st.data(), indicators(), st.integers(0, 3))
@SETTINGS
def test_sparse_operands_match_csr(data, k, width):
    # _same also checks that a sparse operand gives a sparse product.
    _check_right(k, data.draw(operands(k.shape[1], width, sparse=True)))
    _check_left(data.draw(operands(width, k.shape[0], sparse=True)), k)


@given(st.data(), indicators(), st.integers(0, 3))
@SETTINGS
def test_transposed_products_match_csr(data, k, width):
    t = k if k.transposed else k.T
    _check_right(t, data.draw(operands(t.shape[1], width)))
    _check_left(data.draw(operands(width, t.shape[0])), t)


@given(st.data(), indicators())
@SETTINGS
def test_indicator_products_match_csr(data, k):
    other = data.draw(indicators(n_rows=k.shape[1]))
    if other.transposed and other.shape[0] != k.shape[1]:
        other = other.T
    if other.shape[0] != k.shape[1]:
        return  # a transposed draw with no matching side
    product = k @ other
    expected = k.tocsr() @ other.tocsr()
    np.testing.assert_array_equal(_dense(product), expected.toarray())
    if not (k.transposed or other.transposed):
        # A product of indicators is an indicator: its codes compose.
        assert isinstance(product, Indicator)
        np.testing.assert_array_equal(product.codes, other.codes[k.codes])


# -- selection -----------------------------------------------------------------

@st.composite
def row_keys(draw, n: int):
    kind = draw(st.sampled_from(["slice", "take", "mask", "full"]))
    if kind == "slice":
        start, stop = draw(st.integers(0, n)), draw(st.integers(0, n))
        return slice(start, stop, draw(st.sampled_from([1, 2, -1])))
    if kind == "take":
        return np.array(draw(st.lists(st.integers(0, n - 1), max_size=8)) if n else [],
                        dtype=np.int64)
    if kind == "mask":
        return np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
    return slice(None)


def _check_selection(k, key) -> None:
    expected = k.tocsr().toarray()[key[0], :][:, key[1]]  # rows, then columns
    actual = k[key]
    assert actual.shape == expected.shape
    np.testing.assert_array_equal(_dense(actual), expected)


@given(st.data(), indicators())
@SETTINGS
def test_row_selection_matches_csr(data, k):
    rows = data.draw(row_keys(k.shape[0]))
    _check_selection(k, (rows, slice(None)))
    if not k.transposed:
        # Row selection stays an indicator over the same columns.
        taken = k[rows, :]
        assert isinstance(taken, Indicator) and taken.n_cols == k.n_cols


@given(st.data(), indicators())
@SETTINGS
def test_column_selection_matches_csr(data, k):
    _check_selection(k, (slice(None), data.draw(row_keys(k.shape[1]))))


@given(indicators())
@SETTINGS
def test_full_slice_returns_equal_indicator(k):
    _check_selection(k, (slice(None), slice(None)))
    full = k[:, :]
    assert isinstance(full, Indicator) and full.transposed == k.transposed
    np.testing.assert_array_equal(full.codes, k.codes)


@given(st.data(), indicators())
@SETTINGS
def test_row_and_column_selection_matches_csr(data, k):
    rows = data.draw(row_keys(k.shape[0]))
    cols = data.draw(row_keys(k.shape[1]))
    _check_selection(k, (rows, cols))


@given(st.data(), indicators())
@SETTINGS
def test_transposed_selection_matches_csr(data, k):
    t = k if k.transposed else k.T
    # Columns of the transpose are rows of the indicator: stays an indicator.
    cols = data.draw(row_keys(t.shape[1]))
    _check_selection(t, (slice(None), cols))
    selected = t[:, cols]
    assert isinstance(selected, Indicator) and selected.transposed
    _check_selection(t, (data.draw(row_keys(t.shape[0])), slice(None)))


def test_non_2d_indexing_rejected():
    with pytest.raises(TypeError, match="2-D indexing"):
        indicator_from_labels([0, 1], num_columns=2)[0]


# -- composed hops (a snowflake alias) ----------------------------------------

def _hops():
    """entity(8) -> K1(4) -> K2(2): a surjective two-hop alias."""
    k1 = indicator_from_labels([0, 1, 2, 3, 3, 2, 1, 0], num_columns=4)
    k2 = indicator_from_labels([0, 1, 0, 1], num_columns=2)
    return k1, k2


def test_composed_codes_equal_hop_product():
    k1, k2 = _hops()
    composed = k1 @ k2
    assert isinstance(composed, Indicator) and composed.shape == (8, 2)
    np.testing.assert_array_equal(composed.codes, [0, 1, 0, 1, 1, 0, 1, 0])
    np.testing.assert_array_equal(composed.toarray(),
                                  (k1.tocsr() @ k2.tocsr()).toarray())


def test_mismatched_hop_shapes_raise():
    k1 = indicator_from_labels([0, 1, 2], num_columns=3)
    k2 = indicator_from_labels([0, 1], num_columns=2)  # 2 rows != 3 columns
    with pytest.raises(ShapeError, match="inner dimensions"):
        k1 @ k2


def test_matmul_shape_mismatch():
    k1, k2 = _hops()
    composed = k1 @ k2
    with pytest.raises(ShapeError, match="inner dimensions"):
        composed @ np.ones((3, 3))
    with pytest.raises(ShapeError, match="inner dimensions"):
        np.ones((3, 3)) @ composed


def test_one_dimensional_operands():
    k1, k2 = _hops()
    composed = k1 @ k2
    reference = composed.toarray()
    out = composed @ np.arange(2.0)
    assert out.shape == (8, 1)
    np.testing.assert_array_equal(out[:, 0], reference @ np.arange(2.0))
    out = np.arange(8.0) @ composed
    assert out.shape == (1, 2)
    np.testing.assert_array_equal(out[0], np.arange(8.0) @ reference)


# -- construction --------------------------------------------------------------

def test_codes_are_copied_and_validated():
    codes = np.array([0, 2, 1])
    k = Indicator(codes, 3)
    codes[0] = 2
    np.testing.assert_array_equal(k.codes, [0, 2, 1])
    with pytest.raises(ShapeError, match=r"\[0, 3\)"):
        Indicator([0, 3], 3)
    with pytest.raises(ShapeError, match=r"\[0, 3\)"):
        Indicator([-1, 0], 3)
    with pytest.raises(ShapeError, match="1-D integer"):
        Indicator([0.5, 1.0], 3)
    assert Indicator([], 0).shape == (0, 0)


@given(st.data(), st.integers(0, 6), st.integers(0, 3))
@SETTINGS
def test_transposed_constructor_equals_transpose(data, n_cols, width):
    n_rows = data.draw(st.integers(0, 12)) if n_cols else 0
    codes = data.draw(st.lists(st.integers(0, max(n_cols - 1, 0)),
                               min_size=n_rows, max_size=n_rows))
    flagged = Indicator(codes, n_cols, transposed=True)
    expected = Indicator(codes, n_cols).T
    assert flagged.transposed and flagged.shape == expected.shape == (n_cols, n_rows)
    assert not flagged.T.transposed
    np.testing.assert_array_equal(flagged.T.codes, codes)
    np.testing.assert_array_equal(flagged.toarray(), expected.tocsr().toarray())
    np.testing.assert_array_equal(flagged.T.toarray(), expected.T.tocsr().toarray())
    _same(flagged @ np.ones((n_rows, width)), expected.tocsr() @ np.ones((n_rows, width)))
    _same(np.ones((width, n_cols)) @ flagged, np.ones((width, n_cols)) @ expected.tocsr())
    np.testing.assert_array_equal(_dense(flagged[:, ::2]), expected.tocsr()[:, ::2].toarray())
    assert pickle.loads(pickle.dumps(flagged)).shape == flagged.shape
