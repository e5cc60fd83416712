"""Thread-safe labeled metrics: counters, gauges, histograms.

The observability layer is gated by a single process-global switch
(:func:`enable` / :func:`disable`, or the ``REPRO_OBS`` environment
variable).  When the gate is off every ``inc``/``set``/``observe`` call
returns after a single attribute check, so instrumented hot paths cost
near zero.  Series created with ``always=True`` record unconditionally;
they back the pre-existing ad-hoc counters (cache hit counts, serving
stats) whose accessors must keep working whether or not observability
is enabled.

Design notes:

- This module depends only on the standard library and numpy so every
  layer of the stack (``la``, ``core``, ``serve``, ``ml``) can import it
  without cycles.
- Histograms keep incremental cumulative bucket counts (for Prometheus
  exposition) plus a bounded window of raw samples so ``quantile`` is
  numpy-exact while observation counts fit the window.
"""

from __future__ import annotations

import bisect
import os
import threading
from collections import deque
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "Counter",
    "CounterFamily",
    "DEFAULT_BUCKETS",
    "Gauge",
    "GaugeFamily",
    "Histogram",
    "HistogramFamily",
    "MetricsRegistry",
    "REGISTRY",
    "disable",
    "enable",
    "enabled",
    "get_registry",
]

_TRUTHY = frozenset({"1", "true", "yes", "on"})

_enabled: bool = os.environ.get("REPRO_OBS", "").strip().lower() in _TRUTHY


def enabled() -> bool:
    """Return True when the process-global observability gate is on."""
    return _enabled


def enable() -> None:
    """Turn on metric recording and tracing for gated series."""
    global _enabled
    _enabled = True


def disable() -> None:
    """Turn off metric recording and tracing for gated series."""
    global _enabled
    _enabled = False


def _check_label_values(values: Sequence[str]) -> Tuple[str, ...]:
    return tuple(str(v) for v in values)


class Counter:
    """Monotonically increasing counter series."""

    __slots__ = ("_always", "_lock", "_value")

    def __init__(self, always: bool = False) -> None:
        self._value = 0.0
        self._lock = threading.Lock()
        self._always = bool(always)

    def inc(self, amount: float = 1.0) -> None:
        if not (self._always or _enabled):
            return
        if amount < 0:
            raise ValueError("counters can only increase")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def reset(self) -> None:
        with self._lock:
            self._value = 0.0


class Gauge:
    """Point-in-time value series (can go up and down)."""

    __slots__ = ("_always", "_lock", "_value")

    def __init__(self, always: bool = False) -> None:
        self._value = 0.0
        self._lock = threading.Lock()
        self._always = bool(always)

    def set(self, value: float) -> None:
        if not (self._always or _enabled):
            return
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        if not (self._always or _enabled):
            return
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        return self._value

    def reset(self) -> None:
        with self._lock:
            self._value = 0.0


#: Default latency-oriented bucket upper bounds, in seconds.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)

#: How many raw observations a histogram retains for exact quantiles.
SAMPLE_WINDOW = 4096


class Histogram:
    """Histogram series: cumulative buckets plus a raw-sample window."""

    __slots__ = ("_always", "_counts", "_lock", "_samples", "_sum", "_total", "_uppers")

    def __init__(
        self,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        always: bool = False,
        window: int = SAMPLE_WINDOW,
    ) -> None:
        uppers = sorted(float(b) for b in buckets)
        if not uppers:
            raise ValueError("histogram needs at least one bucket bound")
        self._uppers = tuple(uppers)
        # one slot per finite bucket plus the +Inf overflow bucket
        self._counts = [0] * (len(uppers) + 1)
        self._sum = 0.0
        self._total = 0
        self._samples: deque = deque(maxlen=int(window))
        self._lock = threading.Lock()
        self._always = bool(always)

    def observe(self, value: float) -> None:
        if not (self._always or _enabled):
            return
        value = float(value)
        idx = bisect.bisect_left(self._uppers, value)
        with self._lock:
            self._counts[idx] += 1
            self._sum += value
            self._total += 1
            self._samples.append(value)

    @property
    def count(self) -> int:
        return self._total

    @property
    def sum(self) -> float:
        return self._sum

    def quantile(self, q: float) -> float:
        """Exact quantile over the retained sample window (numpy linear)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        with self._lock:
            samples = list(self._samples)
        if not samples:
            return float("nan")
        return float(np.percentile(np.asarray(samples, dtype=float), q * 100.0))

    def buckets(self) -> List[Tuple[float, int]]:
        """Cumulative ``(upper_bound, count)`` pairs, Prometheus style."""
        with self._lock:
            counts = list(self._counts)
        out: List[Tuple[float, int]] = []
        running = 0
        for upper, n in zip(self._uppers, counts):
            running += n
            out.append((upper, running))
        out.append((float("inf"), running + counts[-1]))
        return out

    def reset(self) -> None:
        with self._lock:
            self._counts = [0] * (len(self._uppers) + 1)
            self._sum = 0.0
            self._total = 0
            self._samples.clear()


class _Family:
    """A named metric with a fixed label schema and per-labelset series."""

    kind = "untyped"

    def __init__(
        self,
        name: str,
        help: str,
        label_names: Sequence[str],
        always: bool,
    ) -> None:
        self.name = name
        self.help = help
        self.label_names = tuple(label_names)
        self.always = bool(always)
        self._series: Dict[Tuple[str, ...], object] = {}
        self._lock = threading.Lock()

    def _make_series(self):  # pragma: no cover - overridden
        raise NotImplementedError

    def labels(self, *values: str, **kw: str):
        if values and kw:
            raise ValueError("pass label values positionally or by name, not both")
        if kw:
            try:
                values = tuple(kw[n] for n in self.label_names)
            except KeyError as exc:
                raise ValueError(
                    f"metric {self.name!r} expects labels {self.label_names}"
                ) from exc
        key = _check_label_values(values)
        if len(key) != len(self.label_names):
            raise ValueError(
                f"metric {self.name!r} expects {len(self.label_names)} label values, "
                f"got {len(key)}"
            )
        series = self._series.get(key)
        if series is None:
            with self._lock:
                series = self._series.get(key)
                if series is None:
                    series = self._make_series()
                    self._series[key] = series
        return series

    def _default(self):
        return self.labels()

    def series(self) -> List[Tuple[Tuple[str, ...], object]]:
        with self._lock:
            return sorted(self._series.items())

    def reset(self) -> None:
        with self._lock:
            series = list(self._series.values())
        for s in series:
            s.reset()  # type: ignore[attr-defined]


class CounterFamily(_Family):
    kind = "counter"

    def _make_series(self) -> Counter:
        return Counter(always=self.always)

    def inc(self, amount: float = 1.0) -> None:
        self._default().inc(amount)

    @property
    def value(self) -> float:
        return sum(s.value for _, s in self.series())


class GaugeFamily(_Family):
    kind = "gauge"

    def _make_series(self) -> Gauge:
        return Gauge(always=self.always)

    def set(self, value: float) -> None:
        self._default().set(value)

    def inc(self, amount: float = 1.0) -> None:
        self._default().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._default().dec(amount)

    @property
    def value(self) -> float:
        return self._default().value


class HistogramFamily(_Family):
    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        label_names: Sequence[str],
        always: bool,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help, label_names, always)
        self.bucket_bounds = tuple(sorted(float(b) for b in buckets))

    def _make_series(self) -> Histogram:
        return Histogram(buckets=self.bucket_bounds, always=self.always)

    def observe(self, value: float) -> None:
        self._default().observe(value)

    def quantile(self, q: float) -> float:
        return self._default().quantile(q)

    @property
    def count(self) -> int:
        return sum(s.count for _, s in self.series())


_VALID_NAME = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_:"
)


class MetricsRegistry:
    """Process-global catalog of metric families, keyed by name."""

    def __init__(self) -> None:
        self._families: Dict[str, _Family] = {}
        self._lock = threading.Lock()

    def _register(self, name: str, factory) -> _Family:
        if not name or set(name) - _VALID_NAME or name[0].isdigit():
            raise ValueError(f"invalid metric name: {name!r}")
        family = self._families.get(name)
        if family is None:
            with self._lock:
                family = self._families.get(name)
                if family is None:
                    family = factory()
                    self._families[name] = family
                    return family
        return family

    def counter(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        always: bool = False,
    ) -> CounterFamily:
        family = self._register(name, lambda: CounterFamily(name, help, labels, always))
        if not isinstance(family, CounterFamily):
            raise ValueError(f"metric {name!r} already registered as {family.kind}")
        return family

    def gauge(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        always: bool = False,
    ) -> GaugeFamily:
        family = self._register(name, lambda: GaugeFamily(name, help, labels, always))
        if not isinstance(family, GaugeFamily):
            raise ValueError(f"metric {name!r} already registered as {family.kind}")
        return family

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        always: bool = False,
    ) -> HistogramFamily:
        family = self._register(
            name, lambda: HistogramFamily(name, help, labels, always, buckets=buckets)
        )
        if not isinstance(family, HistogramFamily):
            raise ValueError(f"metric {name!r} already registered as {family.kind}")
        return family

    def get(self, name: str) -> Optional[_Family]:
        return self._families.get(name)

    def families(self) -> List[_Family]:
        with self._lock:
            return [self._families[k] for k in sorted(self._families)]

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._families)

    def reset(self) -> None:
        """Zero every series in every family (keeps registrations)."""
        for family in self.families():
            family.reset()

    def collect(self) -> List[dict]:
        """Snapshot every family into plain dicts (export-friendly)."""
        out: List[dict] = []
        for family in self.families():
            entry: dict = {
                "name": family.name,
                "kind": family.kind,
                "help": family.help,
                "labels": list(family.label_names),
                "series": [],
            }
            for key, series in family.series():
                labels = dict(zip(family.label_names, key))
                if family.kind == "histogram":
                    entry["series"].append(
                        {
                            "labels": labels,
                            "count": series.count,  # type: ignore[attr-defined]
                            "sum": series.sum,  # type: ignore[attr-defined]
                            "buckets": [
                                [upper, count]
                                for upper, count in series.buckets()  # type: ignore[attr-defined]
                            ],
                        }
                    )
                else:
                    entry["series"].append(
                        {"labels": labels, "value": series.value}  # type: ignore[attr-defined]
                    )
            out.append(entry)
        return out


#: The process-global registry used by all built-in instrumentation.
REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    return REGISTRY
