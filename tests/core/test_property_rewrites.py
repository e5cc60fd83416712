"""Property-based tests: every rewrite equals its materialized counterpart.

These tests generate random normalized matrices (random dimensions, random
foreign-key assignments, random values, optional sparsity and multiple joins)
with Hypothesis and assert that each factorized operator produces the same
result as the standard operator applied to the materialized matrix --
the paper's exact-arithmetic equivalence claim (footnote 7), up to
floating-point tolerance.
"""

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MNNormalizedMatrix
from repro.core.normalized_matrix import NormalizedMatrix
from repro.la.ops import indicator_from_labels

# Keep values in a moderate range so exp/power stay finite and comparisons tight.
_VALUE = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False, allow_infinity=False)


@st.composite
def normalized_matrices(draw, max_joins: int = 2, allow_empty_entity: bool = True,
                        allow_sparse: bool = True):
    """Generate a random star-schema normalized matrix and its dense materialization."""
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    num_joins = draw(st.integers(min_value=1, max_value=max_joins))
    n_s = draw(st.integers(min_value=6, max_value=40))
    if allow_empty_entity and draw(st.booleans()):
        d_s = 0
    else:
        d_s = draw(st.integers(min_value=1, max_value=6))
    entity = rng.uniform(-3, 3, size=(n_s, d_s)) if d_s else None

    indicators, attributes = [], []
    for _ in range(num_joins):
        n_r = draw(st.integers(min_value=1, max_value=min(10, n_s)))
        d_r = draw(st.integers(min_value=1, max_value=6))
        values = rng.uniform(-3, 3, size=(n_r, d_r))
        if allow_sparse and draw(st.booleans()):
            mask = rng.random(values.shape) < 0.5
            values = values * mask
            attributes.append(sp.csr_matrix(values))
        else:
            attributes.append(values)
        labels = np.concatenate([
            np.arange(n_r, dtype=np.int64),
            rng.integers(0, n_r, size=n_s - n_r, dtype=np.int64),
        ])
        rng.shuffle(labels)
        indicators.append(indicator_from_labels(labels, num_columns=n_r))

    normalized = NormalizedMatrix(entity, indicators, attributes)
    return normalized, normalized.to_dense(), rng


@st.composite
def mn_matrices(draw, max_components: int = 3):
    """Generate a random multi-component M:N normalized matrix."""
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    num_components = draw(st.integers(min_value=1, max_value=max_components))
    n_out = draw(st.integers(min_value=8, max_value=40))
    indicators, attributes = [], []
    for _ in range(num_components):
        n_r = draw(st.integers(min_value=1, max_value=min(8, n_out)))
        d_r = draw(st.integers(min_value=1, max_value=5))
        attributes.append(rng.uniform(-3, 3, size=(n_r, d_r)))
        labels = np.concatenate([
            np.arange(n_r, dtype=np.int64),
            rng.integers(0, n_r, size=n_out - n_r, dtype=np.int64),
        ])
        rng.shuffle(labels)
        indicators.append(indicator_from_labels(labels, num_columns=n_r))
    normalized = MNNormalizedMatrix(indicators, attributes)
    return normalized, normalized.to_dense(), rng


SETTINGS = dict(max_examples=40, deadline=None)


class TestStarRewriteProperties:
    @given(normalized_matrices(), _VALUE)
    @settings(**SETTINGS)
    def test_scalar_multiplication(self, data, scalar):
        normalized, dense, _ = data
        assert np.allclose((normalized * scalar).to_dense(), dense * scalar)

    @given(normalized_matrices(), _VALUE)
    @settings(**SETTINGS)
    def test_scalar_addition(self, data, scalar):
        normalized, dense, _ = data
        assert np.allclose((normalized + scalar).to_dense(), dense + scalar)

    @given(normalized_matrices())
    @settings(**SETTINGS)
    def test_elementwise_function(self, data):
        normalized, dense, _ = data
        assert np.allclose(normalized.apply(np.tanh).to_dense(), np.tanh(dense), atol=1e-9)

    @given(normalized_matrices())
    @settings(**SETTINGS)
    def test_aggregations(self, data):
        normalized, dense, _ = data
        assert np.allclose(normalized.rowsums().ravel(), dense.sum(axis=1), atol=1e-8)
        assert np.allclose(normalized.colsums().ravel(), dense.sum(axis=0), atol=1e-8)
        assert np.isclose(normalized.total_sum(), dense.sum(), atol=1e-7)

    @given(normalized_matrices(), st.integers(min_value=1, max_value=4))
    @settings(**SETTINGS)
    def test_lmm(self, data, width):
        normalized, dense, rng = data
        x = rng.standard_normal((dense.shape[1], width))
        assert np.allclose(normalized @ x, dense @ x, atol=1e-8)

    @given(normalized_matrices(), st.integers(min_value=1, max_value=4))
    @settings(**SETTINGS)
    def test_rmm(self, data, width):
        normalized, dense, rng = data
        x = rng.standard_normal((width, dense.shape[0]))
        assert np.allclose(x @ normalized, x @ dense, atol=1e-8)

    @given(normalized_matrices(), st.integers(min_value=1, max_value=3))
    @settings(**SETTINGS)
    def test_transposed_lmm(self, data, width):
        normalized, dense, rng = data
        p = rng.standard_normal((dense.shape[0], width))
        assert np.allclose(normalized.T @ p, dense.T @ p, atol=1e-8)

    @given(normalized_matrices())
    @settings(**SETTINGS)
    def test_crossprod_both_methods(self, data):
        normalized, dense, _ = data
        reference = dense.T @ dense
        assert np.allclose(normalized.crossprod("efficient"), reference, atol=1e-7)
        assert np.allclose(normalized.crossprod("naive"), reference, atol=1e-7)

    @given(normalized_matrices())
    @settings(**SETTINGS)
    def test_gram_transposed(self, data):
        normalized, dense, _ = data
        assert np.allclose(normalized.T.crossprod(), dense @ dense.T, atol=1e-7)

    @given(normalized_matrices(max_joins=1, allow_empty_entity=False, allow_sparse=False))
    @settings(max_examples=20, deadline=None)
    def test_ginv(self, data):
        normalized, dense, _ = data
        assert np.allclose(normalized.ginv(), np.linalg.pinv(dense), atol=1e-5)

    @given(normalized_matrices())
    @settings(**SETTINGS)
    def test_materialize_transpose_consistency(self, data):
        normalized, dense, _ = data
        assert np.allclose(normalized.T.to_dense(), dense.T)


class TestMNRewriteProperties:
    @given(mn_matrices(), _VALUE)
    @settings(**SETTINGS)
    def test_scalar_ops(self, data, scalar):
        normalized, dense, _ = data
        assert np.allclose((normalized * scalar).to_dense(), dense * scalar)
        assert np.allclose((normalized + scalar).to_dense(), dense + scalar)

    @given(mn_matrices())
    @settings(**SETTINGS)
    def test_aggregations(self, data):
        normalized, dense, _ = data
        assert np.allclose(normalized.rowsums().ravel(), dense.sum(axis=1), atol=1e-8)
        assert np.allclose(normalized.colsums().ravel(), dense.sum(axis=0), atol=1e-8)
        assert np.isclose(normalized.total_sum(), dense.sum(), atol=1e-7)

    @given(mn_matrices(), st.integers(min_value=1, max_value=3))
    @settings(**SETTINGS)
    def test_lmm_and_rmm(self, data, width):
        normalized, dense, rng = data
        x = rng.standard_normal((dense.shape[1], width))
        y = rng.standard_normal((width, dense.shape[0]))
        assert np.allclose(normalized @ x, dense @ x, atol=1e-8)
        assert np.allclose(y @ normalized, y @ dense, atol=1e-8)

    @given(mn_matrices())
    @settings(**SETTINGS)
    def test_crossprod(self, data):
        normalized, dense, _ = data
        assert np.allclose(normalized.crossprod(), dense.T @ dense, atol=1e-7)
        assert np.allclose(normalized.T.crossprod(), dense @ dense.T, atol=1e-7)


class TestAlgebraicInvariants:
    """Cross-operator identities that must hold regardless of representation."""

    @given(normalized_matrices())
    @settings(**SETTINGS)
    def test_colsums_equals_ones_rmm(self, data):
        normalized, dense, _ = data
        ones = np.ones((1, dense.shape[0]))
        assert np.allclose(normalized.colsums(), ones @ normalized, atol=1e-8)

    @given(normalized_matrices())
    @settings(**SETTINGS)
    def test_rowsums_equals_lmm_with_ones(self, data):
        normalized, dense, _ = data
        ones = np.ones((dense.shape[1], 1))
        assert np.allclose(normalized.rowsums(), normalized @ ones, atol=1e-8)

    @given(normalized_matrices())
    @settings(**SETTINGS)
    def test_crossprod_trace_equals_sum_of_squares(self, data):
        normalized, dense, _ = data
        gram = normalized.crossprod()
        assert np.isclose(np.trace(gram), (normalized ** 2).total_sum(), atol=1e-6)

    @given(normalized_matrices(), _VALUE)
    @settings(**SETTINGS)
    def test_scalar_distributes_over_lmm(self, data, scalar):
        normalized, dense, rng = data
        x = rng.standard_normal((dense.shape[1], 2))
        assert np.allclose((normalized * scalar) @ x, scalar * (normalized @ x), atol=1e-7)
