"""Tables 9 and 10: Morpheus on an out-of-core (ORE-style) backend.

The paper's scalability study runs logistic regression on Oracle R Enterprise,
where every pass over the data is streamed through ``ore.rowapply``.  This
example uses the library's chunked :class:`~repro.core.partitioned.Partitioned`
substitute (see docs/paper_map.md): the materialized version streams the wide
join output one row chunk at a time, while the factorized version works on the base-table matrices
directly, so its runtime barely moves as the feature ratio or the join fan-out
grows.

Run with::

    python examples/ore_scalability.py
"""

from __future__ import annotations

import time

import numpy as np

from repro.bench.reporting import format_table, print_report
from repro.datasets.synthetic import (
    SyntheticMNConfig,
    SyntheticPKFKConfig,
    generate_mn,
    generate_pk_fk,
)
from repro.core.partitioned import Partitioned
from repro.ml import LogisticRegressionGD

CHUNK_ROWS = 2_048
ITERATIONS = 3


def timed_fit(data, target) -> float:
    model = LogisticRegressionGD(max_iter=ITERATIONS, step_size=1e-4)
    start = time.perf_counter()
    model.fit(data, target)
    return time.perf_counter() - start


def pk_fk_study(feature_ratios=(0.5, 1, 2, 4)) -> list:
    rows = []
    for feature_ratio in feature_ratios:
        config = SyntheticPKFKConfig.from_ratios(
            tuple_ratio=10, feature_ratio=feature_ratio,
            num_attribute_rows=2_000, num_entity_features=20, seed=0)
        dataset = generate_pk_fk(config)
        chunked = Partitioned.chunked(dataset.materialized, CHUNK_ROWS)
        materialized_seconds = timed_fit(chunked, dataset.target)
        factorized_seconds = timed_fit(dataset.normalized, dataset.target)
        rows.append([f"{feature_ratio:g}", f"{materialized_seconds:.3f}",
                     f"{factorized_seconds:.3f}",
                     f"{materialized_seconds / factorized_seconds:.1f}x"])
    return rows


def mn_study(uniqueness_degrees=(0.5, 0.1, 0.02)) -> list:
    rows = []
    for degree in uniqueness_degrees:
        num_rows = 1_000
        config = SyntheticMNConfig(num_rows=num_rows, num_features=30,
                                   domain_size=max(1, int(round(degree * num_rows))), seed=0)
        dataset = generate_mn(config)
        chunked = Partitioned.chunked(dataset.materialized, CHUNK_ROWS)
        materialized_seconds = timed_fit(chunked, dataset.target)
        factorized_seconds = timed_fit(dataset.normalized, dataset.target)
        rows.append([f"{degree:g}", f"{dataset.output_rows}", f"{materialized_seconds:.3f}",
                     f"{factorized_seconds:.3f}",
                     f"{materialized_seconds / factorized_seconds:.1f}x"])
    return rows


def main() -> None:
    print_report(
        "Table 9 (chunked backend): logistic regression over a PK-FK join",
        format_table(["feature ratio", "materialized (s)", "factorized (s)", "speed-up"],
                     pk_fk_study()))
    print_report(
        "Table 10 (chunked backend): logistic regression over an M:N join",
        format_table(["uniqueness degree", "join output rows", "materialized (s)",
                      "factorized (s)", "speed-up"],
                     mn_study()))


if __name__ == "__main__":
    main()
