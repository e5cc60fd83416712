"""Self-tests of the ledger benchmark, at about 2% scale (not part of tier-1).

Run from the repository root::

    python -m pytest benchmarks/ledger/test_ledger.py -q
"""

from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import catalog  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

SCALE = 0.02
SECONDS = 0.3

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as _handle:
    BENCHMARK = json.load(_handle)


@pytest.fixture(autouse=True)
def pinned_environment(monkeypatch):
    for name, value in run.PINNED_ENV.items():
        monkeypatch.setenv(name, value)
    for name in run.UNSET_ENV:
        monkeypatch.delenv(name, raising=False)
    run.pin_environment()


def tiny_run(tmp_path, name, trace, seed=0):
    return run.run_workload(name, seed, SECONDS, trace, scale=SCALE, out=str(tmp_path))


def test_benchmark_json_matches_the_catalog():
    assert BENCHMARK["paths"] == ["benchmarks/ledger"]
    assert BENCHMARK["run_seconds"] == run.DEFAULT_SECONDS
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(catalog.WORKLOADS)
    assert BENCHMARK["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in catalog.END_TO_END]
    assert BENCHMARK["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in catalog.PER_LAYER]
    assert len(catalog.PER_LAYER) <= 128


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", catalog.WORKLOADS)
def test_every_metric_prints_with_its_unit(tmp_path, capsys, name, trace):
    record = tiny_run(tmp_path, name, trace)
    last = run.report(record)
    printed = capsys.readouterr().out
    assert record["correct"], record["failures"]
    expected = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    assert set(last["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        assert last["metrics"][m["name"]]["unit"] == m["unit"]
    shown = list(expected) if trace else list(expected) + [
        {"name": m.name, "unit": m.unit} for m in catalog.detail_for(name)]
    lines = {line.split()[0]: line.split() for line in printed.splitlines() if line.strip()}
    for m in shown:
        assert lines[m["name"]][2] == m["unit"], m["name"]
    if not trace:
        assert set(record["detail"]) == {m.name for m in catalog.detail_for(name)}
        assert all(v["value"] > 0 for v in record["end_to_end"].values())
    else:
        assert record["tracing"]["coverage_problems"] == []
        assert os.path.exists(os.path.join(tmp_path, f"spans-{name}-0.jsonl"))


def test_perturbed_kernel_makes_error_rate_positive(tmp_path, monkeypatch):
    from repro.la import kernels

    original = kernels.gather_add

    def perturbed(out, indicator, attribute, block):
        return original(out, indicator, attribute, block) + 1e-3

    monkeypatch.setattr(kernels, "gather_add", perturbed)
    record = tiny_run(tmp_path, "star-eager", False)
    assert record["failed"] > 0
    assert record["detail"]["error_rate"]["value"] > 0
    assert not record["correct"]


def test_flatten_looks_through_library_spans():
    from repro import obs

    roots = []
    obs.enable()
    try:
        with tracing.root_spans(roots)("fit.linreg"):
            with obs.span("LinearRegressionGD.fit"):          # the library's own span
                with tracing.span("kernel.gather_add", "la.kernels", bytes=8):
                    pass
    finally:
        obs.disable()
    fit, kernel = tracing.flatten(roots)
    assert (fit.id, fit.parent, fit.root, fit.layer) == (1, None, 1, "workload")
    assert (kernel.parent, kernel.root, kernel.attrs) == (1, 1, {"bytes": 8})
    assert kernel.thread == fit.thread


def test_self_time_subtracts_the_union_of_overlapping_children():
    span = tracing.Record
    spans = [
        span(1, None, 1, "fit.linreg", "workload", 0.0, 10.0, "main"),
        span(2, 1, 1, "parallel.task", "la.parallel", 1.0, 4.0, "worker-0"),
        span(3, 1, 1, "parallel.task", "la.parallel", 3.0, 6.0, "worker-1"),
        span(4, 1, 1, "kernel.gather_add", "la.kernels", 8.0, 12.0, "main"),
        span(5, 4, 1, "chain", "la.chain", 9.0, 9.5, "main"),
    ]
    own = tracing.self_times(spans)
    # Children cover [1, 6] and [8, 10] of the parent (the last one clipped).
    assert own[1] == pytest.approx(10.0 - 5.0 - 2.0)
    assert own[2] == pytest.approx(3.0)
    assert own[3] == pytest.approx(3.0)
    assert own[4] == pytest.approx(4.0 - 0.5)
    assert own[5] == pytest.approx(0.5)


@pytest.mark.parametrize("name", catalog.WORKLOADS)
def test_inputs_depend_on_the_seed_alone(tmp_path, name):
    from workloads import WORKLOADS

    def inputs(seed):
        wl = WORKLOADS[name](seed, SECONDS, scale=SCALE, workdir=str(tmp_path))
        try:
            wl.setup()
            return wl.digest()
        finally:
            wl.close()

    assert inputs(3) == inputs(3)
    assert inputs(3) != inputs(4)
