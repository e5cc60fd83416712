"""Golden-file regression test for the planner's choices.

``tests/goldens/plans.json`` pins the chosen candidate label (or the error
class) at every point of a fixed planning grid: synthetic PK-FK data at
tuple ratio {1, 5, 20} x feature ratio {0.5, 2}, each as a normalized
matrix, its dense materialization, a CSR copy, a chunked operand and a
two-shard operand; planned for the five workload factories under memory
budget {None, 2e5} x ``n_shards`` {None, 1, 2}, plus ``tn.plan(workload)``.
A refactor of the planner that changes any chosen plan fails here.

The grid is machine-independent: the default calibration constants, fixed
shard candidates and a pinned worker count.  To regenerate after an
*intentional* planning change::

    REPRO_REGEN_GOLDENS=1 python -m pytest tests/core/test_plan_goldens.py

and commit the diff (review it: every changed line is a changed plan).
"""

from __future__ import annotations

import json
import os
import pathlib

import pytest
import scipy.sparse as sp

from repro.core.partitioned import Partitioned
from repro.core.planner import CalibrationProfile, Planner, WorkloadDescriptor
from repro.datasets.synthetic import SyntheticPKFKConfig, generate_pk_fk
from repro.exceptions import MorpheusError

GOLDEN_PATH = pathlib.Path(__file__).resolve().parent.parent / "goldens" / "plans.json"
REGEN = bool(os.environ.get("REPRO_REGEN_GOLDENS"))

TUPLE_RATIOS = (1, 5, 20)
FEATURE_RATIOS = (0.5, 2)
BUDGETS = (None, 2e5)
SHARD_PINS = (None, 1, 2)
WORKLOADS = (
    WorkloadDescriptor.generic(),
    WorkloadDescriptor.logistic_regression(20),
    WorkloadDescriptor.linear_regression_gd(20),
    WorkloadDescriptor.kmeans(5, 20),
    WorkloadDescriptor.gnmf(5, 20),
)


def _operands(tuple_ratio, feature_ratio):
    config = SyntheticPKFKConfig.from_ratios(
        tuple_ratio=tuple_ratio, feature_ratio=feature_ratio,
        num_attribute_rows=200, num_entity_features=4, seed=3,
    )
    tn = generate_pk_fk(config).normalized
    dense = tn.to_dense()
    return {
        "normalized": tn,
        "dense": dense,
        "csr": sp.csr_matrix(dense),
        "chunked": Partitioned.chunked(dense, max(1, dense.shape[0] // 3)),
        "sharded": tn.shard(2),
    }


def _outcome(plan_call) -> str:
    try:
        return plan_call().chosen.label
    except MorpheusError as exc:
        return f"error:{type(exc).__name__}"


def plan_grid() -> dict:
    """Chosen label (or error class) at every grid point, keyed by the point."""
    profile = CalibrationProfile.default()
    records = {}
    for tr in TUPLE_RATIOS:
        for fr in FEATURE_RATIOS:
            operands = _operands(tr, fr)
            for kind, data in operands.items():
                for workload in WORKLOADS:
                    for budget in BUDGETS:
                        planner = Planner(calibration=profile, shard_candidates=(2, 4),
                                          memory_budget=budget)
                        for pin in SHARD_PINS:
                            key = (f"tr={tr} fr={fr} {kind} {workload.name} "
                                   f"budget={budget} n_shards={pin}")
                            records[key] = _outcome(
                                lambda: planner.plan(data, workload, n_shards=pin))
                    if kind == "normalized":
                        key = f"tr={tr} fr={fr} {kind} {workload.name} tn.plan()"
                        records[key] = _outcome(lambda: data.plan(workload))
    return records


@pytest.fixture
def pinned_machine(monkeypatch):
    """Four workers and the default calibration, whatever the runner has."""
    monkeypatch.setattr("repro.la.parallel.default_workers", lambda: 4)
    monkeypatch.setenv("REPRO_CALIBRATION", "default")


def test_chosen_plans_match_golden(pinned_machine):
    actual = plan_grid()
    if REGEN:
        GOLDEN_PATH.write_text(json.dumps(actual, indent=1, sort_keys=True) + "\n")
    expected = json.loads(GOLDEN_PATH.read_text())
    changed = sorted(k for k in expected.keys() | actual.keys()
                     if expected.get(k) != actual.get(k))
    assert not changed, (
        f"{len(changed)} chosen plans changed, e.g. {changed[:3]}; if intentional, "
        f"regenerate with REPRO_REGEN_GOLDENS=1 and review the diff"
    )


def test_golden_grid_reaches_every_backend_and_an_error():
    outcomes = json.loads(GOLDEN_PATH.read_text()).values()
    backends = {o.split("/")[2].split("@")[0].split(" ")[0]
                for o in outcomes if not o.startswith("error:")}
    assert backends == {"dense", "sparse", "sharded", "chunked", "streamed"}
    assert "error:PlanningError" in outcomes
