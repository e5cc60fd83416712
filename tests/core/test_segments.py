"""Column-segment metadata: accessors, partition invariants, fingerprints."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ColumnSegment, schema_fingerprint
from repro.core.normalized_matrix import NormalizedMatrix
from repro.core.segments import build_segments, segment_widths


class TestColumnSegmentsStar:
    def test_segments_partition_columns(self, multi_join_dense):
        _, normalized, _ = multi_join_dense
        segments = normalized.column_segments()
        assert segments[0].name == "entity"
        assert segments[0].is_entity
        assert [s.name for s in segments[1:]] == ["table_0", "table_1"]
        assert segments[0].start == 0
        for before, after in zip(segments, segments[1:]):
            assert before.stop == after.start
        assert segments[-1].stop == normalized.logical_cols

    def test_widths_match_matrix_metadata(self, multi_join_dense):
        _, normalized, _ = multi_join_dense
        segments = normalized.column_segments()
        assert segments[0].width == normalized.entity_width
        assert [s.width for s in segments[1:]] == normalized.attribute_widths
        assert normalized.n_features_per_table == {
            "entity": normalized.entity_width,
            "table_0": normalized.attribute_widths[0],
            "table_1": normalized.attribute_widths[1],
        }

    def test_segment_slices_reassemble_matmul(self, multi_join_dense):
        """Slicing a weight vector by segments reproduces the full product."""
        _, normalized, materialized = multi_join_dense
        rng = np.random.default_rng(3)
        w = rng.standard_normal((normalized.logical_cols, 2))
        dense = np.asarray(materialized)
        total = np.zeros((normalized.logical_rows, 2))
        for segment in normalized.column_segments():
            total += dense[:, segment.slice()] @ w[segment.slice()]
        np.testing.assert_allclose(total, dense @ w, rtol=1e-12, atol=1e-12)

    def test_absent_entity_matrix_has_no_entity_segment(self, no_entity_features):
        normalized, _ = no_entity_features
        segments = normalized.column_segments()
        assert [s.name for s in segments] == ["table_0"]
        assert segments[0].table_index == 0
        assert segments[-1].stop == normalized.logical_cols
        assert normalized.n_features_per_table == {"table_0": normalized.attribute_widths[0]}


class TestColumnSegmentsMN:
    def test_components_have_no_entity_block(self, mn_multi_component):
        normalized, _ = mn_multi_component
        segments = normalized.column_segments()
        assert [s.name for s in segments] == ["table_0", "table_1", "table_2"]
        assert all(not s.is_entity for s in segments)
        assert [s.width for s in segments] == normalized.attribute_widths
        assert segments[-1].stop == normalized.logical_cols
        assert normalized.n_features_per_table == {
            f"table_{i}": w for i, w in enumerate(normalized.attribute_widths)
        }


class TestBuildSegments:
    def test_entity_none_vs_zero(self):
        assert build_segments(None, [3]) == [ColumnSegment("table_0", 0, 3, 0)]
        with_zero = build_segments(0, [3])
        assert with_zero[0] == ColumnSegment("entity", 0, 0, None)
        assert with_zero[1] == ColumnSegment("table_0", 0, 3, 0)

    def test_segment_widths_mapping(self):
        segments = build_segments(2, [3, 4])
        assert segment_widths(segments) == {"entity": 2, "table_0": 3, "table_1": 4}


class TestSchemaFingerprint:
    def test_stable_across_row_counts(self, single_join_dense, rng):
        """Fingerprints ignore row counts (the freshness story needs that)."""
        _, normalized, _ = single_join_dense
        grown = NormalizedMatrix(
            normalized.entity,
            normalized.indicators,
            [np.vstack([np.asarray(normalized.attributes[0]),
                        rng.standard_normal((5, normalized.attribute_widths[0]))])],
            validate=False,
        )
        assert schema_fingerprint(grown) == schema_fingerprint(normalized)

    def test_changes_with_widths_and_kind(self, single_join_dense, mn_dataset):
        _, star, _ = single_join_dense
        _, mn, _ = mn_dataset
        wider = NormalizedMatrix(
            star.entity, star.indicators,
            [np.hstack([np.asarray(star.attributes[0]),
                        np.zeros((star.attributes[0].shape[0], 1))])],
            validate=False,
        )
        fingerprints = {schema_fingerprint(star), schema_fingerprint(wider),
                        schema_fingerprint(mn)}
        assert len(fingerprints) == 3

    def test_transpose_does_not_change_fingerprint(self, single_join_dense):
        _, normalized, _ = single_join_dense
        assert schema_fingerprint(normalized.T) == schema_fingerprint(normalized)


def test_indicator_codes_roundtrip(single_join_dense):
    from repro.core import indicator_codes
    from repro.la.ops import indicator_from_labels

    _, normalized, _ = single_join_dense
    codes = indicator_codes(normalized.indicators[0])
    rebuilt = indicator_from_labels(codes, num_columns=normalized.attributes[0].shape[0])
    assert (rebuilt.tocsr() != normalized.indicators[0].tocsr()).nnz == 0


def test_indicator_codes_rejects_multi_nonzero_rows():
    import scipy.sparse as sp

    from repro.core import indicator_codes
    from repro.exceptions import IndicatorError

    bad = sp.csr_matrix(np.array([[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(IndicatorError):
        indicator_codes(bad)
