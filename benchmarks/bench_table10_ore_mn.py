"""Table 10: scalability on the ORE-style chunked backend, M:N join.

The paper varies the join-attribute domain size; smaller domains blow up the
join output, so the materialized (chunked) runtime explodes while the
factorized runtime stays flat -- speed-ups approaching two orders of magnitude.
"""

import pytest

from _common import group_name, mn_dataset
from repro.core.partitioned import Partitioned
from repro.ml import LogisticRegressionGD

UNIQUENESS_POINTS = (0.5, 0.1, 0.02)
CHUNK_ROWS = 4_096
ITERATIONS = 3


@pytest.mark.parametrize("degree", UNIQUENESS_POINTS, ids=lambda d: f"nU{d:g}")
class TestChunkedLogisticMN:
    def test_materialized_chunked(self, benchmark, degree):
        benchmark.group = group_name("table10", "logreg-chunked", f"nU={degree:g}")
        dataset = mn_dataset(degree, num_rows=1_000, num_features=30)
        chunked = Partitioned.chunked(dataset.materialized, CHUNK_ROWS)
        model = LogisticRegressionGD(max_iter=ITERATIONS, step_size=1e-4)
        benchmark.pedantic(lambda: model.fit(chunked, dataset.target), rounds=1, iterations=1,
                           warmup_rounds=0)

    def test_factorized(self, benchmark, degree):
        benchmark.group = group_name("table10", "logreg-chunked", f"nU={degree:g}")
        dataset = mn_dataset(degree, num_rows=1_000, num_features=30)
        normalized = dataset.normalized
        model = LogisticRegressionGD(max_iter=ITERATIONS, step_size=1e-4)
        benchmark.pedantic(lambda: model.fit(normalized, dataset.target), rounds=1,
                           iterations=1, warmup_rounds=0)
