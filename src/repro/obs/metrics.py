"""The unified telemetry registry: counters, gauges, histograms.

These are the primitives that used to live inside
:mod:`repro.server.metrics` as lock-guarded dicts, extracted so every
subsystem shares one implementation and one exposition path instead of
growing its own.  A :class:`MetricsRegistry` owns named metric
families; a family with label names hands out per-label-value children
(:meth:`MetricFamily.labels`); everything renders to the Prometheus
text exposition format (labels sorted alphabetically, integral floats
rendered as integers).

All operations are thread-safe under the registry's single lock --
increments are a dict lookup plus an add, cheap enough for the compile
hot path.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "format_labels",
    "format_value",
]

#: Log-spaced latency buckets (seconds).  Compiles run ~1-50ms, HTTP
#: round trips up to seconds; +Inf is implicit.
LATENCY_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def format_labels(pairs: Dict[str, str]) -> str:
    """``{target="demo",status="ok"}`` (sorted by label name), or ``""``."""
    if not pairs:
        return ""
    inner = ",".join(
        '%s="%s"' % (key, _escape(str(value))) for key, value in sorted(pairs.items())
    )
    return "{%s}" % inner


def format_value(value: float) -> str:
    if isinstance(value, float) and value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value) if not isinstance(value, int) else str(value)


class Counter:
    """A monotonically increasing value (one labeled child)."""

    __slots__ = ("value", "_lock")
    kind = "counter"

    def __init__(self, lock: Optional[threading.Lock] = None):
        self.value = 0.0
        self._lock = lock if lock is not None else threading.Lock()

    def inc(self, by: float = 1.0) -> None:
        with self._lock:
            self.value += by

    def render(self, name: str, labels: Optional[Dict[str, str]] = None) -> List[str]:
        return ["%s%s %s" % (name, format_labels(labels or {}), format_value(self.value))]


class Gauge:
    """A value that can go up and down (one labeled child)."""

    __slots__ = ("value", "_lock")
    kind = "gauge"

    def __init__(self, lock: Optional[threading.Lock] = None):
        self.value = 0.0
        self._lock = lock if lock is not None else threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self.value = value

    def inc(self, by: float = 1.0) -> None:
        with self._lock:
            self.value += by

    def render(self, name: str, labels: Optional[Dict[str, str]] = None) -> List[str]:
        return ["%s%s %s" % (name, format_labels(labels or {}), format_value(self.value))]


class Histogram:
    """A fixed-bucket cumulative histogram (Prometheus semantics)."""

    __slots__ = ("buckets", "counts", "total", "count", "_lock")
    kind = "histogram"

    def __init__(
        self,
        buckets: Tuple[float, ...] = LATENCY_BUCKETS,
        lock: Optional[threading.Lock] = None,
    ):
        self.buckets = tuple(buckets)
        self.counts = [0] * (len(self.buckets) + 1)  # last slot = +Inf
        self.total = 0.0
        self.count = 0
        self._lock = lock if lock is not None else threading.Lock()

    def observe(self, value: float) -> None:
        with self._lock:
            self.total += value
            self.count += 1
            for index, bound in enumerate(self.buckets):
                if value <= bound:
                    self.counts[index] += 1
                    return
            self.counts[-1] += 1

    def render(self, name: str, labels: Optional[Dict[str, str]] = None) -> List[str]:
        labels = dict(labels or {})
        lines = []
        cumulative = 0
        for bound, count in zip(self.buckets, self.counts):
            cumulative += count
            bucket_labels = dict(labels)
            bucket_labels["le"] = "%g" % bound
            lines.append(
                "%s_bucket%s %d" % (name, format_labels(bucket_labels), cumulative)
            )
        bucket_labels = dict(labels)
        bucket_labels["le"] = "+Inf"
        lines.append(
            "%s_bucket%s %d" % (name, format_labels(bucket_labels), self.count)
        )
        lines.append("%s_sum%s %s" % (name, format_labels(labels), repr(self.total)))
        lines.append("%s_count%s %d" % (name, format_labels(labels), self.count))
        return lines


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricFamily:
    """One named metric with fixed label names and per-value children.

    ``labels(target="demo", status="ok")`` returns (creating on first
    use) the child for those label values; with no label names the
    family has exactly one anonymous child, ``labels()``.
    """

    def __init__(
        self,
        name: str,
        help_text: str,
        kind: str,
        label_names: Sequence[str] = (),
        buckets: Tuple[float, ...] = LATENCY_BUCKETS,
        lock: Optional[threading.Lock] = None,
    ):
        if kind not in _KINDS:
            raise ValueError("unknown metric kind %r" % kind)
        self.name = name
        self.help_text = help_text
        self.kind = kind
        self.label_names = tuple(label_names)
        self.buckets = tuple(buckets)
        self._lock = lock if lock is not None else threading.Lock()
        self._children: Dict[Tuple[str, ...], object] = {}

    def labels(self, **label_values):
        if len(label_values) == len(self.label_names):  # an existing child, fast
            try:
                return self._children[tuple([str(label_values[n]) for n in self.label_names])]
            except KeyError:
                pass  # a new child or a wrong label name: validated below
        given = tuple(sorted(label_values))
        expected = tuple(sorted(self.label_names))
        if given != expected:
            raise ValueError(
                "metric %s takes labels (%s), got (%s)"
                % (self.name, ", ".join(expected), ", ".join(given))
            )
        key = tuple(str(label_values[name]) for name in self.label_names)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                if self.kind == "histogram":
                    child = Histogram(buckets=self.buckets, lock=self._lock)
                else:
                    child = _KINDS[self.kind](lock=self._lock)
                self._children[key] = child
        return child

    # convenience for label-less families
    def inc(self, by: float = 1.0) -> None:
        self.labels().inc(by)

    def set(self, value: float) -> None:
        self.labels().set(value)

    def observe(self, value: float) -> None:
        self.labels().observe(value)

    def clear(self) -> None:
        """Drop every child (a gauge family re-set from each snapshot)."""
        with self._lock:
            self._children.clear()

    def collect(self) -> List[Tuple[Dict[str, str], object]]:
        """``(label_dict, child)`` pairs, sorted by label values."""
        with self._lock:
            items = sorted(self._children.items())
        return [
            (dict(zip(self.label_names, key)), child) for key, child in items
        ]

    def render(self, include_header: bool = True) -> List[str]:
        lines: List[str] = []
        if include_header:
            lines.append("# HELP %s %s" % (self.name, self.help_text))
            lines.append("# TYPE %s %s" % (self.name, self.kind))
        for label_dict, child in self.collect():
            lines.extend(child.render(self.name, label_dict))
        return lines


class MetricsRegistry:
    """A named collection of :class:`MetricFamily` objects.

    ``counter``/``gauge``/``histogram`` get-or-create a family
    (re-registration with a different kind or label set is an error);
    ``gauge_callback`` registers a zero-argument callable sampled at
    render time (uptime, rates); one that raises or returns ``None``
    renders no sample.  :meth:`render` serializes the families in
    registration order, then the callback gauges in theirs.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._families: Dict[str, MetricFamily] = {}
        self._callbacks: Dict[str, Tuple[str, Callable[[], float]]] = {}

    def _family(
        self,
        name: str,
        help_text: str,
        kind: str,
        label_names: Sequence[str],
        buckets: Tuple[float, ...] = LATENCY_BUCKETS,
    ) -> MetricFamily:
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = self._families[name] = MetricFamily(
                    name, help_text, kind, label_names, buckets=buckets
                )
                return family
        if family.kind != kind or family.label_names != tuple(label_names):
            raise ValueError(
                "metric %s already registered as %s(%s)"
                % (name, family.kind, ", ".join(family.label_names))
            )
        return family

    def counter(
        self, name: str, help_text: str = "", labels: Sequence[str] = ()
    ) -> MetricFamily:
        return self._family(name, help_text, "counter", labels)

    def gauge(
        self, name: str, help_text: str = "", labels: Sequence[str] = ()
    ) -> MetricFamily:
        return self._family(name, help_text, "gauge", labels)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labels: Sequence[str] = (),
        buckets: Tuple[float, ...] = LATENCY_BUCKETS,
    ) -> MetricFamily:
        return self._family(name, help_text, "histogram", labels, buckets=buckets)

    def gauge_callback(
        self, name: str, help_text: str, fn: Callable[[], Optional[float]]
    ) -> None:
        with self._lock:
            self._callbacks[name] = (help_text, fn)

    def get(self, name: str) -> Optional[MetricFamily]:
        with self._lock:
            return self._families.get(name)

    def families(self) -> List[MetricFamily]:
        with self._lock:
            return list(self._families.values())

    def render(self) -> str:
        lines: List[str] = []
        for family in self.families():
            lines.extend(family.render())
        with self._lock:
            callbacks = list(self._callbacks.items())
        for name, (help_text, fn) in callbacks:
            try:
                value = float(fn())
            except Exception:
                continue  # a broken or value-less callback must not break the scrape
            lines.append("# HELP %s %s" % (name, help_text))
            lines.append("# TYPE %s gauge" % name)
            lines.append("%s %s" % (name, repr(value)))
        return "\n".join(lines) + "\n"
