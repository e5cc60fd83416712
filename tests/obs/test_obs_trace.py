"""Span trees: nesting, contextvar propagation, kernel-set and pool boundaries."""

from __future__ import annotations

import threading

import numpy as np

from repro import obs
from repro.la.parallel import ParallelExecutor
from repro.obs.trace import _NULL_SPAN


class TestDisabledMode:
    def test_span_yields_null_and_records_nothing(self):
        with obs.span("nothing") as s:
            assert s is _NULL_SPAN
            s.set(anything="goes")
        assert obs.recent_spans() == []

    def test_traced_calls_function_directly(self):
        calls = []

        @obs.traced
        def fn(x):
            calls.append(x)
            return x * 2

        assert fn(21) == 42
        assert calls == [21]
        assert obs.recent_spans() == []


class TestNesting:
    def test_children_attach_to_parent(self):
        obs.enable()
        with obs.span("outer"):
            with obs.span("inner-1"):
                pass
            with obs.span("inner-2"):
                with obs.span("leaf"):
                    pass
        roots = obs.recent_spans()
        assert [r.name for r in roots] == ["outer"]
        outer = roots[0]
        assert [c.name for c in outer.children] == ["inner-1", "inner-2"]
        assert [c.name for c in outer.children[1].children] == ["leaf"]
        assert outer.find("leaf") is outer.children[1].children[0]
        assert outer.wall_seconds >= outer.children[0].wall_seconds

    def test_traced_decorator_nests_and_names(self):
        obs.enable()

        @obs.traced("custom-name")
        def inner():
            return 1

        @obs.traced
        def outer():
            return inner()

        outer()
        (root,) = obs.recent_spans()
        assert root.name.endswith("outer")
        assert [c.name for c in root.children] == ["custom-name"]

    def test_annotate_hits_active_span(self):
        obs.enable()
        with obs.span("annotated"):
            obs.annotate(rows=12)
        assert obs.recent_spans()[0].attrs["rows"] == 12

    def test_render_and_to_dict(self):
        obs.enable()
        with obs.span("root", task="demo"):
            with obs.span("child"):
                pass
        root = obs.recent_spans()[0]
        text = root.render()
        assert "root" in text and "child" in text and "task=demo" in text
        d = root.to_dict()
        assert d["name"] == "root"
        assert d["children"][0]["name"] == "child"


class TestWorkerPoolBoundary:
    def test_spans_propagate_into_thread_pool(self):
        obs.enable()
        executor = ParallelExecutor("thread", default_max_workers=4)

        def work(i):
            with obs.span(f"task-{i}"):
                return i * i

        with obs.span("fanout"):
            results = executor.map(work, list(range(6)))
        assert results == [i * i for i in range(6)]
        (root,) = obs.recent_spans()
        shard_map = root.find("shard.map")
        assert shard_map is not None, root.render()
        names = sorted(c.name for c in shard_map.children)
        assert names == sorted(f"task-{i}" for i in range(6))

    def test_single_item_fanout_stays_inline(self):
        obs.enable()
        executor = ParallelExecutor("thread")

        def work(i):
            with obs.span("only"):
                return i

        with obs.span("parent"):
            executor.map(work, [1])
        (root,) = obs.recent_spans()
        assert [c.name for c in root.children] == ["only"]

    def test_worker_thread_without_context_starts_fresh_root(self):
        obs.enable()
        done = threading.Event()

        def worker():
            with obs.span("orphan"):
                pass
            done.set()

        t = threading.Thread(target=worker)
        t.start()
        t.join()
        assert done.is_set()
        assert any(s.name == "orphan" for s in obs.recent_spans())


class TestTimings:
    def test_wall_and_cpu_seconds_populated(self):
        obs.enable()
        with obs.span("busy"):
            np.linalg.qr(np.random.default_rng(0).normal(size=(100, 100)))
        (root,) = obs.recent_spans()
        assert root.wall_end is not None and root.cpu_end is not None
        assert root.wall_seconds > 0
        assert root.cpu_seconds >= 0
