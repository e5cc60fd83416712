"""Behaviour shared by every Partitioned preset: dtype preservation."""

import numpy as np
import pytest

from repro.core.normalized_matrix import NormalizedMatrix
from repro.core.partitioned import Partitioned
from repro.la.ops import indicator_from_labels


def _star_f32() -> NormalizedMatrix:
    rng = np.random.default_rng(5)
    n_s = 29
    entity = rng.standard_normal((n_s, 3)).astype(np.float32)
    indicators, attributes = [], []
    for n_r in (7, 4):
        labels = np.concatenate([np.arange(n_r), rng.integers(0, n_r, size=n_s - n_r)])
        indicators.append(indicator_from_labels(labels, num_columns=n_r))
        attributes.append(rng.standard_normal((n_r, 2)).astype(np.float32))
    return NormalizedMatrix(entity, indicators, attributes)


PRESETS = {
    "chunked": lambda tn: Partitioned.chunked(tn.to_dense().astype(np.float32), 8),
    "sharded-matrix": lambda tn: Partitioned.sharded(tn.to_dense().astype(np.float32), 3,
                                                     pool="serial"),
    "sharded-normalized": lambda tn: tn.shard(3, pool="serial"),
    "streamed": lambda tn: tn.stream(batch_rows=8),
}


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_float32_round_trips_like_normalized_matrix(preset):
    normalized = _star_f32()
    view = PRESETS[preset](normalized)
    rng = np.random.default_rng(6)
    n, d = normalized.shape
    x = rng.standard_normal((d, 2)).astype(np.float32)
    y = rng.standard_normal((n, 2)).astype(np.float32)
    w = rng.standard_normal((2, n)).astype(np.float32)
    cases = [
        ("lmm", view @ x, normalized @ x),
        ("transposed-lmm", view.T @ y, normalized.T @ y),
        ("rmm", w @ view, w @ normalized),
        ("crossprod", view.crossprod(), normalized.crossprod()),
    ]
    for name, got, expected in cases:
        got, expected = np.asarray(got), np.asarray(expected)
        assert expected.dtype == np.float32, name
        assert got.dtype == np.float32, f"{preset}/{name} returned {got.dtype}"
        assert np.allclose(got, expected, atol=1e-4), f"{preset}/{name}"
