"""Tests for indicator-matrix validation in :mod:`repro.core.indicator`."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.indicator import (
    indicator_stats,
    validate_pk_fk_indicator,
)
from repro.exceptions import IndicatorError
from repro.la.indicator import Indicator
from repro.la.ops import indicator_from_labels


def valid_indicator() -> Indicator:
    return indicator_from_labels(np.array([0, 1, 2, 1, 0]))


class TestPkFkValidation:
    def test_valid_matrix_passes(self):
        out = validate_pk_fk_indicator(valid_indicator())
        assert out.shape == (5, 3)

    def test_returns_indicator(self):
        """A sparse input of any format is stored as its row codes."""
        out = validate_pk_fk_indicator(valid_indicator().tocsr().tocoo())
        assert isinstance(out, Indicator)
        np.testing.assert_array_equal(out.codes, [0, 1, 2, 1, 0])

    def test_indicator_passes_through(self):
        indicator = valid_indicator()
        assert validate_pk_fk_indicator(indicator) is indicator

    def test_transposed_indicator_rejected(self):
        with pytest.raises(IndicatorError, match="transposed"):
            validate_pk_fk_indicator(valid_indicator().T)

    def test_dense_input_accepted(self):
        dense = valid_indicator().toarray()
        out = validate_pk_fk_indicator(dense)
        assert isinstance(out, Indicator)

    def test_row_with_two_nonzeros_rejected(self):
        bad = valid_indicator().toarray()
        bad[0, 2] = 1.0
        with pytest.raises(IndicatorError):
            validate_pk_fk_indicator(bad)

    def test_row_with_zero_nonzeros_rejected(self):
        bad = valid_indicator().toarray()
        bad[0, :] = 0.0
        with pytest.raises(IndicatorError):
            validate_pk_fk_indicator(bad)

    def test_non_unit_entry_rejected(self):
        bad = valid_indicator().toarray()
        bad[0, 0] = 2.0
        with pytest.raises(IndicatorError):
            validate_pk_fk_indicator(bad)

    def test_unreferenced_column_rejected(self):
        bad = indicator_from_labels(np.array([0, 0, 1]), num_columns=3)
        with pytest.raises(IndicatorError):
            validate_pk_fk_indicator(bad)

    def test_unreferenced_column_allowed_when_not_required(self):
        bad = indicator_from_labels(np.array([0, 0, 1]), num_columns=3)
        out = validate_pk_fk_indicator(bad, require_full_columns=False)
        assert out.shape == (3, 3)


class TestMnValidation:
    """M:N indicators (one row per join output tuple) pass the same validator."""

    def test_valid_matrix_passes(self):
        out = validate_pk_fk_indicator(valid_indicator())
        assert out.nnz == 5

    def test_row_with_two_nonzeros_rejected(self):
        bad = valid_indicator().toarray()
        bad[1, 0] = 1.0
        with pytest.raises(IndicatorError):
            validate_pk_fk_indicator(bad)

    def test_noncontributing_column_rejected(self):
        bad = indicator_from_labels(np.array([0, 1]), num_columns=3)
        with pytest.raises(IndicatorError):
            validate_pk_fk_indicator(bad)

    def test_noncontributing_column_allowed_when_not_required(self):
        bad = indicator_from_labels(np.array([0, 1]), num_columns=3)
        assert validate_pk_fk_indicator(bad, require_full_columns=False).shape == (2, 3)


class TestIndicatorStats:
    def test_nnz_equals_rows(self):
        stats = indicator_stats(valid_indicator())
        assert stats.nnz == 5
        assert stats.shape == (5, 3)

    def test_fanout_range(self):
        stats = indicator_stats(valid_indicator())
        assert stats.min_rows_per_column == 1
        assert stats.max_rows_per_column == 2

    def test_average_fanout(self):
        stats = indicator_stats(valid_indicator())
        assert stats.average_fanout == pytest.approx(5 / 3)

    def test_empty_columns_edge_case(self):
        stats = indicator_stats(sp.csr_matrix((3, 0)))
        assert stats.average_fanout == 0.0
