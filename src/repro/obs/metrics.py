"""Counters, gauges, and histograms for the deductive pipeline.

A :class:`MetricsRegistry` is a flat namespace of named instruments:

* :class:`Counter` — monotonically increasing totals (facts scanned,
  WAL fsyncs, violations found),
* :class:`Gauge` — last-written values (EDB size, open-session flag),
* :class:`Histogram` — distributions with p50/p95/p99 (per-constraint
  check latency, fsync latency, maintenance round time).

The registry also *absorbs* finished :class:`~repro.datalog.plan.EngineStats`
objects (:meth:`MetricsRegistry.absorb_engine_stats`): the per-session
hot-path counters stay as cheap ``stats.x += 1`` integer bumps inside
the engine, and are folded into the registry once per session at
publish time.  ``EngineStats`` / ``describe()`` therefore remain the
per-session view; the registry is the cross-session aggregate that
supersedes them for long-running processes.

The disabled default is :data:`NULL_METRICS`, whose instruments are
shared no-op singletons — instrumentation points cost one dict-free
method call when metrics are off.

Time-derived instruments (:class:`AgeGauge`, and the replication lag
gauges built on it) are anchored to ``time.monotonic()`` — never the
wall clock, which NTP can step backwards (negative lag, staleness
checks that always pass) or forwards (every snapshot ages at once).
On Linux ``CLOCK_MONOTONIC`` is system-wide, so monotonic anchors
stamped by one process are comparable in another on the same host —
the property the replication layer relies on to measure shipping lag
from primary-stamped chunk timestamps.

Replication instruments (published by ``repro.replication.node``):

* ``repl.epoch`` (gauge) — the node's epoch: committed sessions in its
  log, set from the model's epoch,
* ``repl.lag_seconds`` (gauge) — monotonic shipping lag of the newest
  applied chunk,
* ``repl.chunks_applied`` / ``repl.bytes_applied`` (counters),
* ``repl.reads`` / ``repl.writes`` (counters), and
* ``repl.promotions`` (counter) — failover promotions this node won.

Migration instruments (published by ``repro.runtime.migration``; an
eager cure is a lazy cure converted in-session, so they count both):

* ``migration.debt`` (gauge) — pending conversions in object-steps
  (one per instance per registered step, paid back on conversion; kept
  by arithmetic, never by scanning the object base),
* ``migration.registered`` (counter) — objects made stale by cures,
* ``migration.converted`` (counter) — objects converted by a touch,
  an eager cure's or a drain's,
* ``migration.batches`` / ``migration.background_converted`` (counters)
  and ``migration.batch_ms`` (histogram) — background drain progress.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Dict, List, Optional

__all__ = ["AgeGauge", "Counter", "Gauge", "Histogram", "MetricsRegistry",
           "NullMetrics", "NULL_METRICS", "rollup_snapshots"]


class Counter:
    """A monotonically increasing total (thread-safe)."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self.value += amount


class Gauge:
    """A last-written value.

    ``set`` is a single attribute assignment — atomic under the GIL —
    so the gauge needs no lock even with concurrent writers.
    """

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """A distribution summarised by count/sum/min/max and percentiles.

    Observations are kept exactly up to ``compact_at``; past that the
    sample is deterministically thinned to a systematic every-``k``-th
    subsample of roughly ``compact_to`` values (and only every
    ``k``-th later observation is retained).  Each retained value then
    represents the same number of observations, so quantile estimates
    stay unbiased over the whole stream while memory is bounded for
    arbitrarily long processes.
    """

    __slots__ = ("name", "values", "count", "total", "low", "high",
                 "compact_at", "compact_to", "stride", "_lock")

    def __init__(self, name: str, compact_at: int = 65_536,
                 compact_to: int = 8_192) -> None:
        self.name = name
        self.values: List[float] = []
        self.count = 0
        self.total = 0.0
        self.low: Optional[float] = None
        self.high: Optional[float] = None
        self.compact_at = compact_at
        self.compact_to = compact_to
        self.stride = 1
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        with self._lock:
            self.count += 1
            self.total += value
            if self.low is None or value < self.low:
                self.low = value
            if self.high is None or value > self.high:
                self.high = value
            if (self.count - 1) % self.stride == 0:
                self.values.append(value)
                if len(self.values) > self.compact_at:
                    factor = max(
                        2, -(-len(self.values) // self.compact_to))
                    self.values = self.values[::factor]
                    self.stride *= factor

    def percentile(self, p: float) -> float:
        """Order-statistic percentile (nearest-rank) over the sample."""
        with self._lock:
            ordered = sorted(self.values)
        if not ordered:
            return 0.0
        rank = min(len(ordered) - 1, max(0, int(round(
            (p / 100.0) * (len(ordered) - 1)))))
        return ordered[rank]

    def snapshot(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "sum": round(self.total, 6),
            "min": round(self.low, 6) if self.low is not None else 0.0,
            "max": round(self.high, 6) if self.high is not None else 0.0,
            "p50": round(self.percentile(50), 6),
            "p95": round(self.percentile(95), 6),
            "p99": round(self.percentile(99), 6),
        }


class AgeGauge:
    """A monotonic-anchored age: *how long ago* did something happen.

    :meth:`mark` records an anchor (``time.monotonic()`` by default, or
    an anchor stamped by another process on the same host);
    :meth:`age_seconds` reports the elapsed monotonic time since.  Never
    wall-clock: a stepped system clock must not move ages (see the
    module docstring).
    """

    __slots__ = ("name", "anchor")

    def __init__(self, name: str) -> None:
        self.name = name
        self.anchor: Optional[float] = None

    def mark(self, anchor: Optional[float] = None) -> None:
        self.anchor = time.monotonic() if anchor is None else anchor

    def age_seconds(self) -> float:
        if self.anchor is None:
            return 0.0
        return max(0.0, time.monotonic() - self.anchor)

    @property
    def value(self) -> float:
        return self.age_seconds()


class _NullInstrument:
    """Shared no-op counter/gauge/histogram for the disabled registry."""

    __slots__ = ()
    value = 0

    def inc(self, amount: int = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


_NULL_INSTRUMENT = _NullInstrument()


class NullMetrics:
    """The disabled registry: every instrument is the shared no-op."""

    enabled = False

    def counter(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def absorb_engine_stats(self, stats: object) -> None:
        pass

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        return {"counters": {}, "gauges": {}, "histograms": {}}


NULL_METRICS = NullMetrics()

# EngineStats fields that are millisecond timings: absorbed as histogram
# observations (one per session) rather than summed counters, so the
# registry reports their cross-session distribution.
_ENGINE_TIMING_FIELDS = ("maint_ms",)
# Derived/reporting fields that make no sense as counters.
_ENGINE_SKIP_FIELDS = ("elapsed_seconds", "plan_cache_hit_rate",
                       "constraint_seconds", "slowest_constraints")


class MetricsRegistry:
    """A process-wide namespace of counters, gauges, and histograms.

    Get-or-create is locked so two threads asking for the same new name
    share one instrument instead of racing to register two (and losing
    one's updates); the fast path re-checks under the lock.
    """

    enabled = True

    def __init__(self) -> None:
        self.counters: Dict[str, Counter] = {}
        self.gauges: Dict[str, Gauge] = {}
        self.histograms: Dict[str, Histogram] = {}
        self._lock = threading.Lock()

    def counter(self, name: str) -> Counter:
        instrument = self.counters.get(name)
        if instrument is None:
            with self._lock:
                instrument = self.counters.get(name)
                if instrument is None:
                    instrument = self.counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self.gauges.get(name)
        if instrument is None:
            with self._lock:
                instrument = self.gauges.get(name)
                if instrument is None:
                    instrument = self.gauges[name] = Gauge(name)
        return instrument

    def histogram(self, name: str) -> Histogram:
        instrument = self.histograms.get(name)
        if instrument is None:
            with self._lock:
                instrument = self.histograms.get(name)
                if instrument is None:
                    instrument = self.histograms[name] = Histogram(name)
        return instrument

    def absorb_engine_stats(self, stats: object, prefix: str = "engine.") -> None:
        """Fold one finished per-session ``EngineStats`` into the registry.

        Integer fields become counter increments, millisecond timings
        become histogram observations, and the per-constraint timing
        dict feeds both the pooled ``check.constraint_ms`` histogram and
        a per-constraint ``check.constraint_ms[name]`` histogram.
        """
        as_dict = getattr(stats, "as_dict", None)
        fields = as_dict() if callable(as_dict) else dict(stats)  # type: ignore[arg-type]
        for field, value in fields.items():
            if field in _ENGINE_SKIP_FIELDS:
                continue
            if field in _ENGINE_TIMING_FIELDS:
                self.histogram(prefix + field).observe(float(value))
            elif isinstance(value, bool):
                self.counter(prefix + field).inc(int(value))
            elif isinstance(value, int):
                self.counter(prefix + field).inc(value)
            elif isinstance(value, float):
                self.histogram(prefix + field).observe(value)
        constraint_seconds = getattr(stats, "constraint_seconds", None)
        if constraint_seconds:
            pooled = self.histogram("check.constraint_ms")
            for name, seconds in constraint_seconds.items():
                ms = seconds * 1000.0
                pooled.observe(ms)
                self.histogram(f"check.constraint_ms[{name}]").observe(ms)
        elapsed = getattr(stats, "elapsed_seconds", None)
        if elapsed:
            self.histogram("session.elapsed_ms").observe(elapsed * 1000.0)

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """A JSON-ready view of every instrument."""
        with self._lock:
            counters = sorted(self.counters.items())
            gauges = sorted(self.gauges.items())
            histograms = sorted(self.histograms.items())
        return {
            "counters": {name: c.value for name, c in counters},
            "gauges": {name: g.value for name, g in gauges},
            "histograms": {name: h.snapshot() for name, h in histograms},
        }

    def write_json(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.snapshot(), handle, indent=2, sort_keys=True)

    def render(self, top: int = 10) -> str:
        """A human-readable summary (counters, then slowest histograms)."""
        lines = ["metrics:"]
        for name, counter in sorted(self.counters.items()):
            if counter.value:
                lines.append(f"  {name:<44} {counter.value:>12}")
        for name, gauge in sorted(self.gauges.items()):
            lines.append(f"  {name:<44} {gauge.value:>12.3f}")
        ranked = sorted(self.histograms.values(),
                        key=lambda h: h.total, reverse=True)[:top]
        for hist in ranked:
            snap = hist.snapshot()
            lines.append(
                f"  {hist.name:<44} n={snap['count']:<6} "
                f"p50={snap['p50']:.3f} p95={snap['p95']:.3f} "
                f"p99={snap['p99']:.3f} max={snap['max']:.3f}")
        return "\n".join(lines)


def rollup_snapshots(snapshots: List[Dict[str, Dict[str, object]]]
                     ) -> Dict[str, Dict[str, object]]:
    """Merge several :meth:`MetricsRegistry.snapshot` dicts into one.

    Built for the shard farm: each worker process owns an independent
    registry, and the farm-level view is their merge.  Counters sum
    (they count events), gauges take the max (they mark levels — the
    farm cares about the high-water shard), and histograms combine
    exactly on ``count`` / ``sum`` / ``min`` / ``max``; the percentile
    fields of a merged histogram are count-weighted averages of the
    per-shard percentiles — an approximation (true merged percentiles
    would need the raw samples), flagged by the ``approximate`` key.
    """
    counters: Dict[str, int] = {}
    gauges: Dict[str, float] = {}
    histograms: Dict[str, Dict[str, object]] = {}
    for snapshot in snapshots:
        for name, value in snapshot.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + value
        for name, value in snapshot.get("gauges", {}).items():
            gauges[name] = max(gauges[name], value) if name in gauges \
                else value
        for name, entry in snapshot.get("histograms", {}).items():
            merged = histograms.get(name)
            if merged is None:
                merged = {"count": 0, "sum": 0.0, "min": None, "max": None,
                          "p50": 0.0, "p95": 0.0, "p99": 0.0,
                          "approximate": True}
                histograms[name] = merged
            count = entry.get("count", 0)
            if not count:
                continue
            merged["sum"] = round(merged["sum"] + entry.get("sum", 0.0), 6)
            low, high = entry.get("min", 0.0), entry.get("max", 0.0)
            merged["min"] = low if merged["min"] is None \
                else min(merged["min"], low)
            merged["max"] = high if merged["max"] is None \
                else max(merged["max"], high)
            total = merged["count"] + count
            for field in ("p50", "p95", "p99"):
                merged[field] = round(
                    (merged[field] * merged["count"]
                     + entry.get(field, 0.0) * count) / total, 6)
            merged["count"] = total
    for merged in histograms.values():
        if merged["min"] is None:
            merged["min"] = 0.0
            merged["max"] = 0.0
    return {"counters": dict(sorted(counters.items())),
            "gauges": dict(sorted(gauges.items())),
            "histograms": dict(sorted(histograms.items()))}
