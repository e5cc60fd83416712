"""Golden-file regression tests for the factorized rewrite layer.

Each file under ``tests/goldens/`` pins the SSA-style trace of one Table-1
operator -- every :mod:`repro.la.ops` primitive call and every named kernel
call (:mod:`repro.la.kernels`) it makes -- on the canonical schemas of
:mod:`repro.core.rewrite.trace`.  The tests assert *exact structural
equality*: a refactor of the planner or the rewrite rules that changes the
factorized algebra -- a different multiplication order, a dropped
push-down, an extra materialization -- fails here even if it stays
numerically correct.

To regenerate after an *intentional* algebra change::

    REPRO_REGEN_GOLDENS=1 python -m pytest tests/core/test_rewrite_goldens.py

and commit the diff (review it: every changed step is a changed rewrite).
"""

from __future__ import annotations

import functools
import json
import os
import pathlib

import pytest

from repro.core.rewrite.trace import (
    PRIMITIVES,
    canonical_star_schema,
    table1_traces,
    trace_rewrites,
)
from repro.la.kernels import KERNEL_NAMES

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent.parent / "goldens"
REGEN = bool(os.environ.get("REPRO_REGEN_GOLDENS"))
#: The planner's golden (tests/core/test_plan_goldens.py) shares the directory.
PLAN_GOLDEN = "plans"


@functools.lru_cache(maxsize=1)
def traces() -> dict:
    """All traces, computed once per session *inside* the tests -- a tracing
    or rewrite-layer bug then fails the tests with readable ids instead of
    erroring the whole module at pytest collection time."""
    return table1_traces()


def _golden_path(name: str) -> pathlib.Path:
    return GOLDEN_DIR / f"{name}.json"


def _golden_names():
    # Collection-time parametrization from the committed files only; new or
    # removed traces are caught by test_no_stale_goldens.
    return sorted(p.stem for p in GOLDEN_DIR.glob("*.json") if p.stem != PLAN_GOLDEN)


@pytest.mark.parametrize("name", _golden_names())
def test_rewrite_tree_matches_golden(name):
    """The rewritten operator tree is structurally identical to the committed golden."""
    actual = traces()[name]
    path = _golden_path(name)
    if REGEN:
        path.write_text(json.dumps(actual, indent=2, sort_keys=True) + "\n")
    expected = json.loads(path.read_text())
    assert actual == expected, (
        f"rewritten operator tree for {name!r} changed; if intentional, regenerate "
        f"goldens with REPRO_REGEN_GOLDENS=1 and review the diff"
    )


def test_no_stale_goldens():
    """Every committed golden corresponds to a traced operator (and vice versa).

    With ``REPRO_REGEN_GOLDENS=1`` this test also (re)writes every golden
    first, so a fresh operator gains its file here before the set comparison.
    """
    actual = traces()
    if REGEN:
        GOLDEN_DIR.mkdir(exist_ok=True)
        for name, tree in actual.items():
            _golden_path(name).write_text(
                json.dumps(tree, indent=2, sort_keys=True) + "\n")
    committed = {p.stem for p in GOLDEN_DIR.glob("*.json")} - {PLAN_GOLDEN}
    assert committed == set(actual)


def test_traces_are_deterministic():
    """Two independent trace runs produce identical structures."""
    assert table1_traces() == traces()


def test_lmm_preserves_factorized_multiplication_order():
    """The crucial rewrite decision: ``K (R X)``, never ``(K R) X`` (Section 3.3.3).

    Each indicator's ``gather_add`` step comes right after the small
    ``R @ X`` product of its own attribute table.
    """
    for name, indicators in (("star_lmm", ["K1", "K2"]),
                             ("snowflake_lmm", ["K1", "C1"]),
                             ("mn_lmm", ["I1", "I2"])):
        steps = traces()[name]["steps"]
        gathers = [i for i, s in enumerate(steps) if s["op"] == "gather_add"]
        assert [steps[i]["args"][1] for i in gathers] == indicators, name
        for i, attribute in zip(gathers, ("R1", "R2")):
            inner = steps[i - 1]
            assert inner["op"] == "matmul" and inner["args"][0] == attribute, (
                f"{name}: LMM no longer computes the small R-block product before "
                f"scattering through K -- the materialized order the paper warns about"
            )
            assert steps[i]["args"][2] == attribute


def test_no_golden_multiplies_an_indicator_into_its_table():
    """No trace expands ``K R`` (part of the join output) with a matmul."""
    indicators = {"K1", "K2", "C1", "H1", "H2", "I1", "I2"}
    for name, tree in traces().items():
        for step in tree["steps"]:
            if step["op"] == "matmul":
                left, right = (str(a) for a in step["args"])
                assert not (left in indicators and right.startswith("R")), (name, step)


def test_tracer_restores_primitives():
    """Patched primitives are restored even when the traced operator raises."""
    from repro.core.rewrite import multiplication

    original = multiplication.matmul
    star, named = canonical_star_schema()
    with pytest.raises(Exception):
        with trace_rewrites(named):
            assert multiplication.matmul is not original
            raise RuntimeError("boom")
    assert multiplication.matmul is original


def test_primitive_set_is_closed():
    """Traced steps only use the primitive and kernel vocabulary (closure property)."""
    for tree in traces().values():
        for step in tree["steps"]:
            assert step["op"] in PRIMITIVES | set(KERNEL_NAMES)
