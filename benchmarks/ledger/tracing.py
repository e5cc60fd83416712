"""Benchmark-side tracing: wrap each layer's public entry points in obs spans.

Nothing under ``src/`` changes.  :func:`install` replaces module or class
attributes of the entry points listed in :func:`entry_points` with wrappers
that open one :func:`repro.obs.span` per call, tagged with its ``layer`` and
``thread``, and :meth:`Installed.uninstall` puts the originals back.  The
benchmark holds every root span it opens (a fit, a refresh, a request), so
the trees outlive ``repro.obs``'s bounded ring of recent roots.
``ParallelExecutor.map`` carries the active span into its thread workers, so
shard tasks nest under their fan-out; ``SnapshotManager.submit`` is wrapped so
a snapshot patch on the background worker nests under the delta request that
submitted it.  :func:`flatten` numbers the benchmark's spans and looks through
the spans the library opens itself (they carry no ``layer``).

Entry points that no longer exist are skipped and listed, so a later refactor
cannot break the traced run -- it only shrinks what the trace can attribute.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import importlib
import inspect
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from repro import obs

import catalog


def span(name: str, layer: str, **attrs):
    """An obs span marked as the benchmark's: it carries a layer and a thread."""
    return obs.span(name, layer=layer, thread=threading.current_thread().name, **attrs)


def root_spans(roots: list):
    """Root-span factory of a traced phase; each finished root is appended to *roots*."""

    @contextlib.contextmanager
    def root(kind: str):
        with span(kind, "workload") as opened:
            roots.append(opened)
            yield
    return root


@dataclass
class Record:
    """One benchmark span, flattened: ids are assigned depth-first from 1."""

    id: int
    parent: Optional[int]
    root: int
    name: str
    layer: str
    start: float
    end: float
    thread: str
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def flatten(roots: Sequence[obs.Span]) -> List[Record]:
    """The benchmark spans under *roots*, parented to their nearest benchmark ancestor."""
    records: List[Record] = []
    ids = itertools.count(1)

    def visit(node, parent: Optional[int], root: Optional[int]) -> None:
        if "layer" in node.attrs:
            attrs = dict(node.attrs)
            layer, thread = attrs.pop("layer"), attrs.pop("thread")
            record_id = next(ids)
            root = record_id if root is None else root
            records.append(Record(record_id, parent, root, node.name, layer,
                                  node.wall_start, node.wall_end, thread, attrs))
            parent = record_id
        for child in node.children:
            visit(child, parent, root)

    for node in roots:
        visit(node, None, None)
    return records


def write_jsonl(records: Sequence[Record], path: str, origin: float) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as handle:
        for r in records:
            handle.write(json.dumps({
                "id": r.id, "parent": r.parent, "root": r.root, "name": r.name,
                "layer": r.layer, "start": r.start - origin, "end": r.end - origin,
                "thread": r.thread, **r.attrs,
            }) + "\n")


# -- entry points ------------------------------------------------------------

@dataclass(frozen=True)
class EntryPoint:
    module: str
    attr: str                          # "function", "Class.method"; "*": module gone
    layer: str
    name: object                       # span name, or callable(args) -> name
    observe: Optional[Callable] = None  # (args, result, before) -> attrs dict
    before: Optional[Callable] = None   # (args) -> state passed to observe


def _nbytes(value) -> int:
    """Bytes of the arrays in *value*: ndarrays, CSR/CSC, chains, sequences.

    Other objects (a normalized matrix handed to ``sgd_step``) count zero.
    """
    if isinstance(value, np.ndarray):
        return int(value.nbytes)
    if sp.issparse(value) and hasattr(value, "indptr"):
        return int(value.data.nbytes + value.indices.nbytes + value.indptr.nbytes)
    if hasattr(value, "hops"):
        return sum(_nbytes(h) for h in value.hops)
    if isinstance(value, (list, tuple)):
        return sum(_nbytes(v) for v in value)
    return 0


def _kernel_bytes(args, result, _before):
    return {"bytes": _nbytes(args) + _nbytes(result)}


def _matmul_name(reverse: bool):
    def name(args):
        flipped = getattr(args[0], "transposed", False) != reverse
        return "op.rmm" if flipped else "op.lmm"
    return name


def _plan_of(args, _result, _before):
    """The plan an ``engine="auto"`` fit ran, with its measured/predicted ratio."""
    plan = getattr(args[0], "plan_", None)
    if plan is None:
        return {}
    chosen = plan.chosen
    attrs = {"plan": chosen.label, "n_shards": chosen.n_shards, "engine": chosen.engine,
             "factorized": chosen.factorized, "backend": chosen.backend}
    outcome = getattr(plan, "outcome", None)
    if outcome is not None and outcome.predicted_seconds > 0:
        attrs["residual_ratio"] = outcome.ratio
    return attrs


def _delta_rows(args, _result, _before):
    return {"rows": int(len(args[2].rows))}


def _fetch_rows(args, _result, _before):
    if len(args) >= 3:                       # slice_rows(data, start, stop)
        return {"rows": int(args[2] - args[1])}
    return {"rows": int(len(args[1]))}       # take_rows(data, indices)


def _lookup_hit(_args, result, _before):
    return {"hit": bool(result[0])}


def _cache_counts(args):
    return (args[0].patched, args[0].invalidated)


def _cache_delta(args, _result, before):
    return {"patched": args[0].patched - before[0],
            "invalidated": args[0].invalidated - before[1]}


def entry_points() -> List[EntryPoint]:
    eps: List[EntryPoint] = []
    for est, cls in zip(catalog.ESTIMATORS, ("LinearRegressionGD", "LogisticRegressionGD",
                                              "KMeans", "GNMF")):
        eps.append(EntryPoint("repro.ml", f"{cls}.fit", "ml", f"ml.{est}", observe=_plan_of))
    eps.append(EntryPoint("repro.core.planner", "Planner.plan", "core.planner", "planner.plan"))
    for cls in ("NormalizedMatrix", "MNNormalizedMatrix"):
        eps += [
            EntryPoint("repro.core", f"{cls}.__matmul__", "core", _matmul_name(False)),
            EntryPoint("repro.core", f"{cls}.__rmatmul__", "core", _matmul_name(True)),
            EntryPoint("repro.core", f"{cls}.crossprod", "core", "op.crossprod"),
            EntryPoint("repro.core", f"{cls}.rowsums", "core", "op.agg"),
            EntryPoint("repro.core", f"{cls}.colsums", "core", "op.agg"),
            EntryPoint("repro.core", f"{cls}.total_sum", "core", "op.agg"),
            EntryPoint("repro.core", f"{cls}.take_rows", "core", "op.take_rows"),
            EntryPoint("repro.core", f"{cls}.apply_delta", "core", "op.apply_delta",
                       observe=_delta_rows),
        ]
    for rule in catalog.REWRITES:
        module = f"repro.core.rewrite.{rule}"
        try:
            mod = importlib.import_module(module)
        except ImportError:
            eps.append(EntryPoint(module, "*", "core.rewrite", f"rewrite.{rule}"))
            continue
        for fname, fn in sorted(vars(mod).items()):
            if fname.startswith("_") or not inspect.isfunction(fn) \
                    or fn.__module__ != module:
                continue
            eps.append(EntryPoint(module, fname, "core.rewrite", f"rewrite.{rule}"))
    for kernel in catalog.KERNELS:
        eps.append(EntryPoint("repro.la.kernels", kernel, "la.kernels", f"kernel.{kernel}",
                              observe=_kernel_bytes))
    for method in ("__matmul__", "__rmatmul__"):
        eps.append(EntryPoint("repro.la.chain", f"ChainedIndicator.{method}", "la.chain",
                              "chain"))
    for fname in ("take_rows", "slice_rows"):
        eps.append(EntryPoint("repro.core.stream", fname, "core.stream", "stream.fetch",
                              observe=_fetch_rows))
    eps.append(EntryPoint("repro.core.lazy.cache", "FactorizedCache.lookup", "core.lazy",
                          "lazy.lookup", observe=_lookup_hit))
    eps.append(EntryPoint("repro.core.lazy.cache", "FactorizedCache.apply_delta", "core.lazy",
                          "lazy.apply_delta", observe=_cache_delta, before=_cache_counts))
    eps.append(EntryPoint("repro.serve.scorer", "FactorizedScorer.score_rows", "serve",
                          "serve.score_rows"))
    eps.append(EntryPoint("repro.serve.scorer", "FactorizedScorer.top_k", "serve",
                          "serve.topk"))
    return eps


def _resolve(module: str, attr: str):
    """(owner, attribute name, original) or None when the entry point is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    parts = attr.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = getattr(owner, parts[-1], None)
    if not callable(original):
        return None
    return owner, parts[-1], original


def _wrap(ep: EntryPoint, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        name = ep.name(args) if callable(ep.name) else ep.name
        before = ep.before(args) if ep.before else None
        with span(name, ep.layer) as opened:
            result = fn(*args, **kwargs)
            if ep.observe is not None:
                opened.set(**ep.observe(args, result, before))
        return result
    return wrapper


def _wrap_map(fn):
    """``ParallelExecutor.map``: one fan-out span, one task span per item."""

    @functools.wraps(fn)
    def wrapper(self, task_fn, items):
        items = list(items)
        pool = self.pool
        if pool.name not in ("thread", "serial"):
            return fn(self, task_fn, items)   # tasks may cross a pickle boundary
        workers = 1 if pool.name == "serial" else (
            getattr(pool, "max_workers", None) or os.cpu_count() or 1)
        workers = max(1, min(workers, len(items)))

        def task(item):
            with span("parallel.task", "la.parallel"):
                return task_fn(item)

        with span("parallel.map", "la.parallel", tasks=len(items), workers=workers):
            return fn(self, task, items)
    return wrapper


def _wrap_swap(fn):
    """``SnapshotManager.swap``: time the update function inside the lock."""

    @functools.wraps(fn)
    def wrapper(self, update):
        with span("serve.swap", "serve") as opened:
            def timed(snapshot):
                started = time.perf_counter()
                try:
                    return update(snapshot)
                finally:
                    opened.set(update_s=time.perf_counter() - started)
            return fn(self, timed)
    return wrapper


def _wrap_submit(fn):
    """``SnapshotManager.submit``: run the task in the submitter's context.

    The snapshot worker does not carry the active span itself, unlike
    ``ParallelExecutor.map``; without this its swaps would be parentless.
    """

    @functools.wraps(fn)
    def wrapper(self, task):
        ctx = contextvars.copy_context()
        return fn(self, lambda: ctx.run(task))
    return wrapper


class Installed:
    def __init__(self):
        self.patches: List[Tuple[object, str, object, bool]] = []
        self.skipped: List[str] = []

    def patch(self, owner, name: str, replacement) -> None:
        had_own = name in vars(owner)
        self.patches.append((owner, name, getattr(owner, name), had_own))
        setattr(owner, name, replacement)

    def uninstall(self) -> None:
        for owner, name, original, had_own in reversed(self.patches):
            if had_own:
                setattr(owner, name, original)
            else:
                delattr(owner, name)
        self.patches.clear()


def install() -> Installed:
    """Wrap every entry point that still exists; list the ones that do not."""
    installed = Installed()
    patches = [(ep.module, ep.attr, functools.partial(_wrap, ep)) for ep in entry_points()]
    patches += [
        ("repro.la.parallel", "ParallelExecutor.map", _wrap_map),
        ("repro.serve.snapshot", "SnapshotManager.swap", _wrap_swap),
        ("repro.serve.snapshot", "SnapshotManager.submit", _wrap_submit),
    ]
    for module, attr, make in patches:
        resolved = _resolve(module, attr)
        if resolved is None:
            installed.skipped.append(f"{module}:{attr}")
            continue
        owner, name, original = resolved
        installed.patch(owner, name, make(original))
    return installed


# -- analysis ----------------------------------------------------------------

def self_times(spans: Sequence[Record]) -> Dict[int, float]:
    """Each span's duration minus the union of its children's intervals.

    Children are clipped to the parent's interval; children on two threads
    may overlap, so their union -- not their sum -- is subtracted.
    """
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    by_id = {s.id: s for s in spans}
    for s in spans:
        if s.parent is not None and s.parent in by_id:
            children[s.parent].append((s.start, s.end))
    out: Dict[int, float] = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for lo, hi in sorted(children.get(s.id, ())):
            lo, hi = max(lo, cursor), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.id] = s.duration - covered
    return out


def summarize(spans: Sequence[Record], per: float) -> Dict[str, float]:
    """Per-layer counts and times from the spans, divided by *per* units of work.

    Ratios are not divided.  Names without spans come out as zero.
    """
    own = self_times(spans)
    by_id = {s.id: s for s in spans}
    totals: Dict[str, float] = defaultdict(float)
    capacity = 0.0        # fan-out wall x workers
    for s in spans:
        name = s.name
        if name.startswith("ml."):
            totals[f"{name}.self_s"] += own[s.id]
        elif name == "planner.plan":
            totals["planner.plan_s"] += own[s.id]
        elif name.startswith(("op.", "rewrite.", "kernel.")) or name == "chain" \
                or name == "serve.score_rows":
            totals[f"{name}.calls"] += 1
            totals[f"{name}.self_s"] += own[s.id]
            if name.startswith("kernel."):
                totals[f"{name}.bytes"] += s.attrs.get("bytes", 0)
            if name == "op.apply_delta":
                totals["delta.rows"] += s.attrs.get("rows", 0)
        elif name == "lazy.lookup":
            totals["lazy.hits" if s.attrs.get("hit") else "lazy.misses"] += 1
        elif name == "lazy.apply_delta":
            totals["lazy.patched"] += s.attrs.get("patched", 0)
            totals["lazy.invalidated"] += s.attrs.get("invalidated", 0)
        elif name == "parallel.map":
            totals["parallel.fanouts"] += 1
            capacity += s.duration * s.attrs.get("workers", 1)
        elif name == "parallel.task":
            totals["parallel.tasks"] += 1
            totals["parallel.busy_s"] += s.duration
            parent = by_id.get(s.parent)
            if parent is not None:
                totals["parallel.wait_s"] += max(0.0, s.start - parent.start)
        elif name == "stream.fetch":
            totals["stream.batches"] += 1
            totals["stream.rows"] += s.attrs.get("rows", 0)
            totals["stream.fetch_s"] += s.duration
        elif name == "serve.swap":
            totals["serve.swaps"] += 1
            totals["serve.patch_s"] += s.attrs.get("update_s", 0.0)
    hits, misses = totals.get("lazy.hits", 0), totals.get("lazy.misses", 0)
    patched, invalidated = totals.get("lazy.patched", 0), totals.get("lazy.invalidated", 0)
    out = {name: value / per for name, value in totals.items()}
    out["lazy.hit_ratio"] = catalog.ratio(hits, hits + misses)
    out["delta.patch_ratio"] = catalog.ratio(patched, patched + invalidated)
    out["parallel.efficiency"] = catalog.ratio(totals.get("parallel.busy_s", 0), capacity)
    waits = [1e3 * (s.duration - s.attrs.get("update_s", 0.0))
             for s in spans if s.name == "serve.swap"]
    out["serve.swap_wait_ms_p50"] = catalog.median(waits) if waits else 0.0
    return out


def plan_metrics(spans: Sequence[Record]) -> Dict[str, float]:
    """Planner shares and the median measured/predicted ratio of auto fits."""
    plans = [s.attrs for s in spans if s.name.startswith("ml.") and "plan" in s.attrs]
    if not plans:
        return {}
    n = len(plans)
    ratios = [p["residual_ratio"] for p in plans if "residual_ratio" in p]
    return {
        "planner.share.sharded": sum(p["n_shards"] > 1 for p in plans) / n,
        "planner.share.lazy": sum(p["engine"] == "lazy" for p in plans) / n,
        "planner.share.materialized": sum(not p["factorized"] for p in plans) / n,
        "planner.share.streamed": sum(p["backend"] == "streamed" for p in plans) / n,
        "planner.residual_ratio_p50": catalog.median(ratios) if ratios else 0.0,
    }


def obs_counts(family_name: str, label: str) -> Dict[str, float]:
    """Current value of an obs counter family, summed per value of *label*."""
    from repro import obs

    family = obs.REGISTRY.get(family_name)
    out: Dict[str, float] = defaultdict(float)
    if family is None:
        return out
    position = family.label_names.index(label)
    for key, series in family.series():
        out[key[position]] += series.value
    return out


def coverage_problems(spans: Sequence[Record], kernels_before: Dict[str, float],
                      fits_before: Dict[str, float]) -> List[str]:
    """Disagreements between the wrappers' counts and the program's own counters."""
    problems = []
    kernels_after = obs_counts("repro_kernel_dispatch_total", "kernel")
    fits_after = obs_counts("repro_ml_fits_total", "estimator")
    for kernel in catalog.KERNELS:
        wrapped = sum(1 for s in spans if s.name == f"kernel.{kernel}")
        counted = kernels_after.get(kernel, 0) - kernels_before.get(kernel, 0)
        if wrapped != counted:
            problems.append(f"kernel {kernel}: {wrapped} wrapped calls, "
                            f"{counted:g} in repro_kernel_dispatch_total")
    wrapped_fits = sum(1 for s in spans if s.name.startswith("ml."))
    counted_fits = sum(fits_after.values()) - sum(fits_before.values())
    if wrapped_fits != counted_fits:
        problems.append(f"fits: {wrapped_fits} wrapped, {counted_fits:g} in repro_ml_fits_total")
    return problems
