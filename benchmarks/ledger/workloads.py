"""The four ledger workloads: seeded inputs, set-up, timed operations, oracles.

Every workload makes its inputs from ``seed`` alone and touches the library
only through its public API.  ``scale`` shrinks the row counts (the self-tests
run at about 2%); the benchmark itself always runs at ``scale=1``.
"""

from __future__ import annotations

import contextlib
import hashlib
import tempfile
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

import numpy as np

from repro import (
    GNMF,
    KMeans,
    LinearRegressionCofactor,
    LinearRegressionGD,
    LogisticRegressionGD,
    MNNormalizedMatrix,
    ModelRegistry,
    NormalizedMatrix,
    ScoringService,
    Table,
)
from repro.la.ops import indicator_from_labels
from repro.relational import Join, SchemaGraph, normalized_from_schema
from repro.serve import full_scan_top_k

import catalog

def no_root(kind: str):
    """Root-span factory of an untraced phase."""
    return contextlib.nullcontext()


class Phase:
    """Latencies and failures of one timed phase."""

    def __init__(self):
        self.latency: Dict[str, List[float]] = defaultdict(list)
        self.ops = 0
        self.failures: List[str] = []

    def record(self, kind: str, seconds: float) -> None:
        self.latency[kind].append(seconds)
        self.ops += 1

    def fail(self, message: str) -> None:
        self.failures.append(message)


def surjective(rng: np.random.Generator, size: int, count: int) -> np.ndarray:
    """Foreign keys into *count* rows, each referenced at least once."""
    labels = np.concatenate([np.arange(count), rng.integers(0, count, size - count)])
    rng.shuffle(labels)
    return labels


def signs(scores: np.ndarray) -> np.ndarray:
    """±1 labels split at the median, as an ``(n, 1)`` column."""
    scores = np.asarray(scores).reshape(-1, 1)
    return np.where(scores > np.median(scores), 1.0, -1.0)


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def close(actual, expected, rtol: float) -> bool:
    actual, expected = np.asarray(actual), np.asarray(expected)
    if actual.shape != expected.shape:
        return False
    scale = max(1.0, float(np.max(np.abs(expected)))) if expected.size else 1.0
    return bool(np.allclose(actual, expected, rtol=rtol, atol=rtol * scale))


def fitted(est) -> tuple:
    """The learned arrays an estimator's answer is judged by.

    GNMF's row factor ``w_`` has one row per data row; its column sums and
    first rows stand in for it (``h_`` depends on all of it), so answers kept
    for the oracle phase stay small and peak memory does not grow with the
    number of fits a run completes.
    """
    if isinstance(est, KMeans):
        return (est.centroids_,)
    if isinstance(est, GNMF):
        return (est.h_, est.w_.sum(axis=0), est.w_[:256].copy())
    return (est.coef_,)


def same_fit(a: tuple, b: tuple, rtol: float) -> bool:
    return len(a) == len(b) and all(close(x, y, rtol) for x, y in zip(a, b))


def timed(fn: Callable, *args):
    started = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - started


class Workload:
    name = ""
    kinds: tuple = ()

    def __init__(self, seed: int, seconds: float, scale: float = 1.0,
                 trace: bool = False, workdir: str = "."):
        self.seed = int(seed)
        self.seconds = float(seconds)
        self.scale = float(scale)
        self.trace = bool(trace)
        self.workdir = workdir
        #: oracle-phase reference timings (ref.* per-layer metrics)
        self.reference: Dict[str, float] = {}

    def rows(self, count: int) -> int:
        return max(1, int(round(count * self.scale)))

    def prepare(self) -> None:
        """Untimed work between set-up and warm-up (reference answers)."""

    def close(self) -> None:
        pass


# -- training workloads --------------------------------------------------------

class Training(Workload):
    """Round-robin cycles of the four fits (plus a refresh on the snowflake)."""

    kinds = catalog.ESTIMATORS
    ITERS = {"linreg": 20, "logreg": 20, "kmeans": 10, "gnmf": 10}
    #: keeps full-batch least-squares GD stable at 200,000 rows of [0, 1) features
    LINREG_STEP = 1e-7

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.fits_done = 0

    def estimator(self, key: str):
        raise NotImplementedError

    def fit(self, key: str, est, matrix):
        if key in ("linreg", "logreg"):
            return est.fit(matrix, self.y)
        return est.fit(matrix)

    def make(self, key: str, **kwargs):
        iters = self.ITERS[key]
        if key == "linreg":
            return LinearRegressionGD(max_iter=iters, step_size=self.LINREG_STEP, **kwargs)
        if key == "logreg":
            return LogisticRegressionGD(max_iter=iters, **kwargs)
        if key == "kmeans":
            return KMeans(num_clusters=10, max_iter=iters, **kwargs)
        return GNMF(rank=5, max_iter=iters, **kwargs)

    def matrix_for_fit(self):
        return self.matrix

    def before_cycle(self, phase: Phase, root) -> None:
        """Operations that run ahead of each cycle's fits (the refresh)."""

    def after_fit(self, index: int, key: str, est, phase: Phase) -> None:
        """Judge a timed fit (cheap checks only; heavy ones wait for check())."""

    def cycle(self, phase: Phase, root=no_root, judge: bool = True) -> None:
        self.before_cycle(phase, root)
        for key in catalog.ESTIMATORS:
            est = self.estimator(key)
            matrix = self.matrix_for_fit()
            try:
                with root(f"fit.{key}"):
                    _, seconds = timed(self.fit, key, est, matrix)
            except Exception as exc:  # a failed op is counted, not fatal
                phase.fail(f"{key} fit #{self.fits_done}: {exc!r}")
                phase.ops += 1
            else:
                phase.record(key, seconds)
                if judge:
                    self.after_fit(self.fits_done, key, est, phase)
            if judge:
                self.fits_done += 1

    def warm_up(self) -> None:
        self.cycle(Phase(), judge=False)

    def timed_phase(self, seconds: float, phase: Phase, root=no_root) -> int:
        """Whole cycles until *seconds* have passed (at least one); returns cycles."""
        started = time.perf_counter()
        cycles = 0
        while cycles == 0 or time.perf_counter() - started < seconds:
            self.cycle(phase, root)
            cycles += 1
        return cycles


class FixedReference(Training):
    """Star and M:N: every timed fit must equal a factorized reference fit."""

    def warm_up(self) -> None:
        """The reference fits of prepare() already ran one cycle's code paths."""

    def prepare(self) -> None:
        self.expected = {}
        for key in catalog.ESTIMATORS:
            est, seconds = timed(self.fit, key, self.estimator(key), self.matrix_for_fit())
            self.expected[key] = fitted(est)
            self.reference[f"ref.eager.{key}_fit_s"] = seconds

    def after_fit(self, index, key, est, phase) -> None:
        if not same_fit(fitted(est), self.expected[key], 1e-9):
            phase.fail(f"{key} fit #{index} differs from the factorized reference")

    def check(self, oracle: Phase) -> None:
        dense = self.matrix_for_fit().to_dense()
        for key in catalog.ESTIMATORS:
            est, seconds = timed(self.fit, key, self.estimator(key), dense)
            self.reference[f"ref.materialized.{key}_fit_s"] = seconds
            oracle.ops += 1
            if not same_fit(fitted(est), self.expected[key], 1e-8):
                oracle.fail(f"{key}: factorized reference differs from the materialized fit")
        del dense
        cofactor = LinearRegressionCofactor(max_iter=20, step_size=self.LINREG_STEP)
        _, self.reference["ref.cofactor_fit_s"] = timed(
            cofactor.fit, self.matrix_for_fit(), self.y)


class StarEager(FixedReference):
    """The paper's Fig. 5 path: eager serial fits over a two-dimension star."""

    name = "star-eager"

    def params(self) -> dict:
        n = self.rows(200_000)
        return {"entity": [n, 20], "dimensions": [[self.rows(10_000), 40], [self.rows(2_000), 40]],
                "fits": "linreg(20) logreg(20) kmeans(10, k=10) gnmf(10, r=5)",
                "engine": "eager", "n_jobs": 1}

    def setup(self) -> Dict[str, float]:
        started = time.perf_counter()
        p = self.params()
        rng = np.random.default_rng(self.seed)
        n = p["entity"][0]
        self.S = rng.random((n, 20))
        self.codes = [surjective(rng, n, nr) for nr, _ in p["dimensions"]]
        self.R = [rng.random((nr, d)) for nr, d in p["dimensions"]]
        score = self.S @ rng.standard_normal(20)
        for c, r in zip(self.codes, self.R):
            score += (r @ rng.standard_normal(r.shape[1]))[c]
        self.y = signs(score)
        data_s = time.perf_counter() - started
        started = time.perf_counter()
        self.K = [indicator_from_labels(c, num_columns=r.shape[0])
                  for c, r in zip(self.codes, self.R)]
        self.matrix = NormalizedMatrix(self.S, self.K, self.R)
        return {"data_s": data_s, "relational_s": time.perf_counter() - started}

    def digest(self) -> str:
        return digest(self.S, *self.codes, *self.R, self.y)

    def estimator(self, key):
        return self.make(key, engine="eager", n_jobs=1)

    def matrix_for_fit(self):
        # A fresh matrix per fit over the shared base arrays: no per-matrix
        # memo (materialization, shard views, lazy cache) carries over.
        return NormalizedMatrix(self.S, self.K, self.R)


class MNStream(FixedReference):
    """Mini-batch SGD over an M:N join: every batch is a factorized take_rows."""

    name = "mn-stream"
    ITERS = dict.fromkeys(catalog.ESTIMATORS, 3)     # epochs

    def params(self) -> dict:
        return {"tables": [self.rows(4_000), 40], "key_domain": self.rows(200),
                "solver": "sgd", "batch_size": 8192, "shuffle": True, "epochs": 3,
                "n_jobs": 1}

    def setup(self) -> Dict[str, float]:
        started = time.perf_counter()
        p = self.params()
        n, d = p["tables"]
        domain = p["key_domain"]
        rng = np.random.default_rng(self.seed)
        self.left, self.right = rng.random((n, d)), rng.random((n, d))
        self.left_key = rng.permutation(np.arange(n) % domain)
        self.right_key = rng.permutation(np.arange(n) % domain)
        weights = rng.standard_normal(2 * d)
        data_s = time.perf_counter() - started
        started = time.perf_counter()
        # Equi-join enumeration: every left row meets every right row of its key.
        by_key = np.argsort(self.right_key, kind="stable")
        counts = np.bincount(self.right_key, minlength=domain)
        starts = np.concatenate([[0], np.cumsum(counts)])
        left_rows = np.repeat(np.arange(n), counts[self.left_key])
        right_rows = np.concatenate([by_key[starts[k]:starts[k + 1]] for k in self.left_key])
        self.matrix = MNNormalizedMatrix(
            [indicator_from_labels(left_rows, num_columns=n),
             indicator_from_labels(right_rows, num_columns=n)],
            [self.left, self.right])
        relational_s = time.perf_counter() - started
        self.y = signs(self.left[left_rows] @ weights[:d] + self.right[right_rows] @ weights[d:])
        return {"data_s": data_s, "relational_s": relational_s}

    def digest(self) -> str:
        return digest(self.left, self.right, self.left_key, self.right_key)

    def estimator(self, key):
        return self.make(key, solver="sgd", batch_size=8192, shuffle=True, n_jobs=1)


class SnowflakeAuto(Training):
    """Planner-driven fits over a snowflake whose store dimension keeps changing."""

    name = "snowflake-auto"
    kinds = catalog.ESTIMATORS + ("refresh",)
    STORE_COLUMNS = [f"s{j}" for j in range(30)]

    def params(self) -> dict:
        return {"fact": [self.rows(200_000), 20], "store": [self.rows(20_000), 30],
                "region": [self.rows(500), 20], "product": [self.rows(5_000), 40],
                "refresh_rows": min(100, self.rows(20_000)), "collapse": "never",
                "engine": "auto", "n_jobs": None}

    def setup(self) -> Dict[str, float]:
        started = time.perf_counter()
        p = self.params()
        rng = np.random.default_rng(self.seed)
        n, ns, nr, nprod = p["fact"][0], p["store"][0], p["region"][0], p["product"][0]
        fact = {"store_id": surjective(rng, n, ns), "product_id": surjective(rng, n, nprod)}
        fact.update({f"f{j}": rng.random(n) for j in range(20)})
        fact["y"] = signs(np.column_stack([fact[f"f{j}"] for j in range(20)])
                          @ rng.standard_normal(20)).ravel()
        store = {"id": np.arange(ns), "region_id": surjective(rng, ns, nr)}
        store.update({c: rng.random(ns) for c in self.STORE_COLUMNS})
        region = {"id": np.arange(nr)}
        region.update({f"r{j}": rng.random(nr) for j in range(20)})
        product = {"id": np.arange(nprod)}
        product.update({f"p{j}": rng.random(nprod) for j in range(40)})
        self.columns = {"fact": fact, "store": store, "region": region, "product": product}
        self.delta_rng = np.random.default_rng([self.seed, 1])
        data_s = time.perf_counter() - started
        started = time.perf_counter()
        self.graph = SchemaGraph("fact", [
            Join("fact.store_id", "store.id"),
            Join("store.region_id", "region.id"),
            Join("fact.product_id", "product.id"),
        ])
        self.tables = {name: Table(name, cols) for name, cols in self.columns.items()}
        self.store_index = [j.alias for j in self.graph.resolve_order()].index("store")
        dataset = self.build(self.tables)
        self.matrix, self.y = dataset.matrix, dataset.target
        self.store = self.tables["store"]
        self.refreshes: List[tuple] = []
        self.checks: List[tuple] = []
        self.last_fit = None
        return {"data_s": data_s, "relational_s": time.perf_counter() - started}

    def build(self, tables):
        return normalized_from_schema(self.graph, tables, target_column="y",
                                      sparse=False, collapse="never")

    def digest(self) -> str:
        return digest(*(v for cols in self.columns.values() for v in cols.values()))

    def estimator(self, key):
        return self.make(key, engine="auto")

    def next_refresh(self):
        count = self.params()["refresh_rows"]
        rows = self.delta_rng.choice(self.store.num_rows, count, replace=False)
        values = self.delta_rng.random((count, len(self.STORE_COLUMNS)))
        return rows, values

    def refresh(self, rows, values) -> None:
        updates = {c: values[:, j] for j, c in enumerate(self.STORE_COLUMNS)}
        store, delta = self.store.upsert_rows(rows, updates, feature_columns=self.STORE_COLUMNS)
        self.matrix = self.matrix.apply_delta(self.store_index, delta)
        self.store = store

    def before_cycle(self, phase, root) -> None:
        rows, values = self.next_refresh()
        self.refreshes.append((rows, values))
        try:
            with root("refresh"):
                _, seconds = timed(self.refresh, rows, values)
        except Exception as exc:
            phase.fail(f"refresh #{len(self.refreshes)}: {exc!r}")
            phase.ops += 1
        else:
            phase.record("refresh", seconds)

    def after_fit(self, index, key, est, phase) -> None:
        # The first fit and every fourth fit, rotating through the estimators;
        # check() adds the last one.  Compared after the timed phase, against
        # a matrix rebuilt from the tables as they stood.
        if index == 0 or index % 4 == (index // 4) % 4:
            self.checks.append((index, key, len(self.refreshes), fitted(est)))
        self.last_fit = (index, key, len(self.refreshes), fitted(est))

    def check(self, oracle: Phase) -> None:
        checks = {c[0]: c for c in self.checks}
        if self.last_fit is not None:
            checks[self.last_fit[0]] = self.last_fit
        final = len(self.refreshes)
        store, applied = self.tables["store"], 0
        for state in sorted({c[2] for c in checks.values()} | {final}):
            while applied < state:
                rows, values = self.refreshes[applied]
                updates = {c: values[:, j] for j, c in enumerate(self.STORE_COLUMNS)}
                store, _ = store.upsert_rows(rows, updates, feature_columns=self.STORE_COLUMNS)
                applied += 1
            rebuilt = self.build(dict(self.tables, store=store)).matrix
            for index, key, _, answer in (c for c in checks.values() if c[2] == state):
                est = self.make(key, engine="eager", n_jobs=1)
                if not same_fit(answer, fitted(self.fit(key, est, rebuilt)), 1e-8):
                    oracle.fail(f"{key} fit #{index} differs from an eager serial fit "
                                f"on the rebuilt matrix")
            if state == final:
                self.check_final(rebuilt, oracle)

    def check_final(self, rebuilt, oracle: Phase) -> None:
        dense = rebuilt.to_dense()
        for key in catalog.ESTIMATORS:
            eager, self.reference[f"ref.eager.{key}_fit_s"] = timed(
                self.fit, key, self.make(key, engine="eager", n_jobs=1), rebuilt)
            mat, self.reference[f"ref.materialized.{key}_fit_s"] = timed(
                self.fit, key, self.make(key, engine="eager", n_jobs=1), dense)
            oracle.ops += 1
            if not same_fit(fitted(eager), fitted(mat), 1e-8):
                oracle.fail(f"{key}: final eager fit differs from the materialized fit")
        cofactor = LinearRegressionCofactor(max_iter=20, step_size=self.LINREG_STEP)
        _, self.reference["ref.cofactor_fit_s"] = timed(cofactor.fit, rebuilt, self.y)


# -- serving workload -------------------------------------------------------------

class ServeUpdate(Workload):
    """Open-loop scoring against a model whose dimension table keeps changing."""

    name = "serve-update"
    kinds = ("point", "batch", "topk", "delta_visible")
    RATE = 2000.0
    MIX = {"point": 0.90, "batch": 0.08, "topk": 0.02}
    DELTA_PERIOD = 0.2
    OPEN_SHARE = 0.8
    BATCH, TOPK, ZIPF = 256, 100, 1.1
    RECENCY = 30.0

    def params(self) -> dict:
        n = self.rows(200_000)
        return {"entity": [n, 20], "dimensions": [[self.rows(10_000), 40], [self.rows(2_000), 40]],
                "row_order": "table_1 key", "rate_rps": self.RATE, "mix": self.MIX,
                "zipf": self.ZIPF, "batch_rows": self.BATCH, "top_k": self.TOPK,
                "delta_every_s": self.DELTA_PERIOD, "delta_rows": min(50, self.rows(2_000)),
                "lru": 4096, "open_loop_share": self.OPEN_SHARE}

    def setup(self) -> Dict[str, float]:
        parts = {}
        started = time.perf_counter()
        p = self.params()
        rng = np.random.default_rng(self.seed)
        n = p["entity"][0]
        (n0, d0), (n1, d1) = p["dimensions"]
        self.S = rng.random((n, 20))
        self.c0 = surjective(rng, n, n0)
        # Entity rows stored in table_1 key order, so zone-map blocks cluster.
        self.c1 = np.sort(surjective(rng, n, n1))
        self.R0, self.R1 = rng.random((n0, d0)), rng.random((n1, d1))
        # table_1 is time-ordered, newest first: its first feature, a recency
        # on [0, 30), falls as the key rises, and labels follow it.  High
        # scores then sit in the first (full) zone-map block on every seed, so
        # top-k prunes the same share of blocks whatever the seed (deltas
        # never change recency).
        self.R1[:, 0] = self.RECENCY * (n1 - np.arange(n1) - rng.random(n1)) / n1
        noise = self.S @ rng.standard_normal(20) + (self.R0 @ rng.standard_normal(d0))[self.c0]
        self.y = signs(self.R1[self.c1, 0] + 0.05 * noise / noise.std())
        # Zipf(1.1) point-request popularity over a seeded permutation of the rows.
        weights = np.arange(1, n + 1, dtype=np.float64) ** -self.ZIPF
        self.zipf_cdf = np.cumsum(weights / weights.sum())
        self.popular = rng.permutation(n)
        durations = [self.seconds / 2] * 2 if self.trace else [self.seconds * self.OPEN_SHARE]
        self.schedules = [self.schedule(rng, d) for d in durations]
        self.mix_rng = np.random.default_rng([self.seed, 2])
        parts["data_s"] = time.perf_counter() - started

        started = time.perf_counter()
        self.matrix = NormalizedMatrix(self.S, [indicator_from_labels(self.c0, num_columns=n0),
                                                indicator_from_labels(self.c1, num_columns=n1)],
                                       [self.R0, self.R1])
        self.columns = [f"f{j}" for j in range(d1)]
        self.table = Table("table_1", {c: self.R1[:, j] for j, c in enumerate(self.columns)})
        parts["relational_s"] = time.perf_counter() - started

        started = time.perf_counter()
        model = LogisticRegressionGD(max_iter=20, engine="eager", n_jobs=1).fit(self.matrix, self.y)
        parts["train_s"] = time.perf_counter() - started

        started = time.perf_counter()
        with tempfile.TemporaryDirectory(dir=self.workdir) as root:
            registry = ModelRegistry(root)
            registry.save("ledger", model, self.matrix)
            self.weights = registry.load("ledger").weights.ravel()
            self.service = ScoringService(registry.scorer("ledger", self.matrix))
        parts["scorer_s"] = time.perf_counter() - started
        self.deltas: List[tuple] = []       # version v is the state after deltas[:v]
        self.checks: List[tuple] = []
        self.pending: list = []
        self.counts = defaultdict(int)
        return parts

    def schedule(self, rng: np.random.Generator, duration: float) -> list:
        """Seeded Poisson arrivals plus a delta every DELTA_PERIOD seconds."""
        n = self.params()["entity"][0]
        count = int(self.RATE * duration * 1.2) + 16
        due = np.cumsum(rng.exponential(1.0 / self.RATE, count))
        due = due[due < duration]
        kinds = self.request_kinds(rng, due.shape[0])
        points = self.zipf_rows(rng, due.shape[0])
        events = []
        for t, kind, row in zip(due.tolist(), kinds, points.tolist()):
            if kind == "point":
                events.append((t, kind, row))
            elif kind == "batch":
                events.append((t, kind, rng.integers(0, n, self.BATCH)))
            else:
                events.append((t, kind, None))
        for t in np.arange(self.DELTA_PERIOD / 2, duration, self.DELTA_PERIOD).tolist():
            events.append((t, "delta", self.delta_payload(rng)))
        events.sort(key=lambda e: e[0])
        return events

    def request_kinds(self, rng: np.random.Generator, count: int) -> list:
        """*count* request kinds drawn with the MIX shares."""
        names = list(self.MIX)
        bins = np.cumsum(list(self.MIX.values()))[:-1]
        return [names[i] for i in np.searchsorted(bins, rng.random(count), side="right")]

    def zipf_rows(self, rng: np.random.Generator, count: int) -> np.ndarray:
        ranks = np.searchsorted(self.zipf_cdf, rng.random(count))
        return self.popular[np.minimum(ranks, self.popular.shape[0] - 1)]

    def delta_payload(self, rng: np.random.Generator) -> tuple:
        """Rows of table_1 to upsert and their new features (recency kept)."""
        p = self.params()
        n1, d1 = p["dimensions"][1]
        rows = rng.choice(n1, p["delta_rows"], replace=False)
        values = rng.random((rows.shape[0], d1))
        values[:, 0] = self.R1[rows, 0]
        return rows, values

    def digest(self) -> str:
        parts = [self.S, self.c0, self.c1, self.R0, self.R1, self.y]
        for events in self.schedules:
            parts.append(np.array([e[0] for e in events]))
            parts.append(np.array([e[2] for e in events if e[1] == "point"]))
            parts += [e[2] for e in events if e[1] == "batch"]
            parts += [a for e in events if e[1] == "delta" for a in e[2]]
        return digest(*parts)

    # -- operations ---------------------------------------------------------------

    def execute(self, kind: str, payload, phase: Phase, due: Optional[float]) -> None:
        """One request; only the library calls sit between the two clock reads."""
        scorer = self.service.scorer
        self.counts[kind] += 1
        count = self.counts[kind]
        if kind == "delta":
            rows, values = payload
            updates = {c: values[:, j] for j, c in enumerate(self.columns)}
            started = time.perf_counter()
            self.table, delta = self.table.upsert_rows(rows, updates)
            future = self.service.apply_delta("table_1", delta, wait=False)
            ended = time.perf_counter()
            self.deltas.append((rows, values))
            phase.record("delta", ended - (started if due is None else due))
            if due is not None:
                future.add_done_callback(
                    lambda f, due=due: phase.latency["delta_visible"].append(
                        time.perf_counter() - due))
            self.pending.append(future)
            return
        before = scorer.version
        started = time.perf_counter()
        if kind == "point":
            answer = self.service.score_row(payload)
        elif kind == "batch":
            answer = self.service.predict_proba_rows(payload)
        else:
            answer = self.service.top_k(self.TOPK)
        ended = time.perf_counter()
        phase.record(kind, ended - (started if due is None else due))
        checked = (kind == "topk" or (kind == "point" and count % 100 == 0)
                   or (kind == "batch" and count % 50 == 0))
        if checked:
            if kind == "topk":
                answer = (answer.rows.copy(), answer.scores.copy())
            self.checks.append((kind, payload, before, scorer.version, answer))

    def drain(self, phase: Phase) -> None:
        for future in self.pending:
            error = future.exception()
            if error is not None:
                phase.fail(f"apply_delta: {error!r}")
        self.pending.clear()

    def open_loop(self, events: list, phase: Phase, root=no_root) -> dict:
        """Issue each event at its due time; latency counts from the due time."""
        late = []
        origin = time.perf_counter() + 0.005
        for t, kind, payload in events:
            due = origin + t
            now = time.perf_counter()
            while now < due:
                if due - now > 0.002:
                    time.sleep(due - now - 0.001)
                elif self.pending and not self.pending[-1].done():
                    # Yield the interpreter lock while the snapshot worker has
                    # a delta to apply; otherwise spin (a sleep(0) costs ~50 us).
                    time.sleep(0)
                now = time.perf_counter()
            if kind != "delta":
                late.append(now - due)
            try:
                with root(f"request.{kind}"):
                    self.execute(kind, payload, phase, due)
            except Exception as exc:
                phase.fail(f"{kind}: {exc!r}")
        self.drain(phase)
        ended = time.perf_counter()
        requests = sum(1 for e in events if e[1] != "delta")
        duration = events[-1][0] if events else 0.0
        return {"late_ms_p99": 1e3 * catalog.quantile(late, 0.99) if late else 0.0,
                "offered_rps": requests / duration if duration else 0.0,
                "achieved_rps": requests / (ended - origin) if requests else 0.0}

    def closed_loop(self, seconds: float, phase: Phase, ops: Optional[int] = None) -> float:
        """One caller, the same mix and delta share, back to back; returns its wall time."""
        n = self.params()["entity"][0]
        every = int(round(self.RATE * self.DELTA_PERIOD))
        started = time.perf_counter()
        done = 0
        while (done < ops) if ops is not None else (time.perf_counter() - started < seconds):
            kind = self.request_kinds(self.mix_rng, 1)[0]
            if done % every == every - 1:
                kind, payload = "delta", self.delta_payload(self.mix_rng)
            elif kind == "point":
                payload = int(self.zipf_rows(self.mix_rng, 1)[0])
            elif kind == "batch":
                payload = self.mix_rng.integers(0, n, self.BATCH)
            else:
                payload = None
            try:
                self.execute(kind, payload, phase, None)
            except Exception as exc:
                phase.fail(f"{kind}: {exc!r}")
            done += 1
        self.drain(phase)
        return time.perf_counter() - started

    def warm_up(self) -> None:
        self.closed_loop(0.0, Phase(), ops=2 * int(self.RATE * self.DELTA_PERIOD))

    # -- oracle --------------------------------------------------------------------

    def check(self, oracle: Phase) -> None:
        """Replay the deltas on a dense shadow; each request must match a version it read."""
        p = self.params()
        (_, d0), _ = p["dimensions"]
        w_s, w_0, w_1 = self.weights[:20], self.weights[20:20 + d0], self.weights[20 + d0:]
        base = self.S @ w_s + (self.R0 @ w_0)[self.c0]
        shadow = self.R1.copy()
        open_checks = set(range(len(self.checks)))
        last = max((c[3] for c in self.checks), default=0)
        for version in range(last + 1):
            if version:
                rows, values = self.deltas[version - 1]
                shadow[rows] = values
            todo = [i for i in open_checks if self.checks[i][2] <= version <= self.checks[i][3]]
            if not todo:
                continue
            scores = base + (shadow @ w_1)[self.c1]
            scale = max(1.0, float(np.max(np.abs(scores))))
            expected_topk = None
            for i in todo:
                kind, payload, _, _, answer = self.checks[i]
                if kind == "point":
                    ok = close(answer, [scores[payload]], 1e-9)
                elif kind == "batch":
                    ok = close(np.ravel(answer), 1.0 / (1.0 + np.exp(-scores[payload])), 1e-9)
                else:
                    if expected_topk is None:
                        expected_topk = full_scan_top_k(scores, self.TOPK)
                    rows, values = answer
                    ok = (np.array_equal(rows, expected_topk[0])
                          or (np.allclose(values, scores[rows], rtol=1e-9, atol=1e-9 * scale)
                              and np.allclose(np.sort(scores[rows]), np.sort(expected_topk[1]),
                                              rtol=1e-9, atol=1e-9 * scale)))
                if ok:
                    open_checks.discard(i)
        for i in sorted(open_checks):
            kind, _, before, after, _ = self.checks[i]
            oracle.fail(f"{kind} answer matches no snapshot version in {before}..{after}")

    def service_stats(self) -> dict:
        return dict(self.service.stats())

    def close(self) -> None:
        self.service.close()


WORKLOADS = {cls.name: cls for cls in (StarEager, SnowflakeAuto, MNStream, ServeUpdate)}
