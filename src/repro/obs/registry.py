"""Process-local metrics: counters, gauges, histograms, one registry.

The serving stack is pure CPU work on one event loop, so its telemetry
can be, too: every instrument here is a plain Python object with a
dict of label-children — no threads, no locks, no dependency beyond
numpy.  Two consumption styles coexist:

* **push** — hot-path code calls ``counter.inc()`` / ``hist.observe``
  directly.  Each call is O(bucket scan) at worst, cheap enough for
  per-frame (never per-word) events; ``hist.observe_many`` takes a
  whole block's values in one call;
* **pull** — components that already keep counters (the VOQs, the
  scheduler, every plane) are *collected*: a callback registered with
  :meth:`Registry.register_collector` copies their snapshot counters
  into instruments right before each scrape, so the hot path pays
  nothing at all.  :meth:`Counter.sync` mirrors such an external
  cumulative total while still enforcing monotonicity.

Rendering is deterministic (sorted metric names, sorted label sets) in
two formats: :meth:`Registry.render_prometheus` emits the Prometheus
text exposition format, :meth:`Registry.snapshot` a JSON-safe dict.
Metric names follow Prometheus conventions — ``repro_`` prefix,
``_total`` suffix on counters, base units in the name
(``_cycles`` / ``_seconds`` / ``_ratio``).  The catalog of every
metric the serving stack emits lives in ``docs/observability.md``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Registry",
    "get_registry",
    "set_registry",
    "CYCLE_BUCKETS",
    "RATIO_BUCKETS",
    "SECONDS_BUCKETS",
]

#: Powers-of-two cycle buckets: latencies and retry hints are counted
#: in gateway cycles, which span 1 (light load) to ~1k (deep backlog).
CYCLE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0)

#: Ratio buckets for frame fill (a value in [0, 1]).
RATIO_BUCKETS = (0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0)

#: Wall-clock buckets for IPC round trips (10 us .. 1 s).
SECONDS_BUCKETS = (1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0)

#: Up to this many values, ``observe_many`` loops over ``observe``: the
#: loop costs about 0.3 us a value, numpy a fixed 7-8 us a call, and
#: the two meet between 20 and 24 values on all three serving
#: histograms (docs/performance.md, "Small histogram batches").
_LOOP_OBSERVE = 20


def _check_name(name: str) -> str:
    if not name or not all(c.isalnum() or c in "_:" for c in name):
        raise ValueError(f"invalid metric name {name!r}")
    if name[0].isdigit():
        raise ValueError(f"metric name cannot start with a digit: {name!r}")
    return name


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _format_number(value: float) -> str:
    """Prometheus-text value formatting: integers without the ``.0``."""
    if value != value:  # NaN
        return "NaN"
    if value in (float("inf"), float("-inf")):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _label_suffix(labelnames: Sequence[str], labelvalues: Tuple[str, ...]) -> str:
    if not labelnames:
        return ""
    body = ",".join(
        f'{name}="{_escape_label(value)}"'
        for name, value in zip(labelnames, labelvalues)
    )
    return "{" + body + "}"


class _CounterChild:
    """One labelled series of a counter: monotonically non-decreasing."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up; inc({amount})")
        self.value += amount

    def sync(self, total: float) -> None:
        """Mirror an externally-kept cumulative total (pull collection)."""
        if total < self.value:
            raise ValueError(
                f"cumulative total went backwards ({self.value} -> {total})"
            )
        self.value = float(total)


class _GaugeChild:
    """One labelled series of a gauge: goes anywhere."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class _HistogramChild:
    """One labelled series of a histogram."""

    __slots__ = ("bounds", "counts", "sum", "count")

    def __init__(self, bounds: Tuple[float, ...]) -> None:
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)  # +1 for the +Inf bucket
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        value = float(value)
        self.sum += value
        self.count += 1
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[index] += 1
                return
        self.counts[-1] += 1

    def observe_many(self, values: Any) -> None:
        """Observe every value of *values*; the same counts, sum and
        count as a loop of :meth:`observe` in order."""
        values = np.asarray(values, dtype=np.float64).reshape(-1)
        if values.size <= _LOOP_OBSERVE:
            # Window-1 blocks and single rejects: numpy's fixed cost
            # would be most of the hook's time.
            for value in values.tolist():
                self.observe(value)
            return
        # "value <= bound" picks the first bound not below the value;
        # NaN sorts past every bound, into +Inf, as in observe().
        buckets = np.bincount(
            np.searchsorted(self.bounds, values, side="left"),
            minlength=len(self.counts),
        )
        for index, count in enumerate(buckets.tolist()):
            self.counts[index] += count
        # A cumulative sum adds in order, like repeated ``+=``.
        self.sum = float(np.cumsum(np.concatenate(([self.sum], values)))[-1])
        self.count += int(values.size)


class _Metric:
    """Shared naming / labelling machinery for all three instruments."""

    kind = "untyped"

    def __init__(
        self, name: str, help: str, labelnames: Sequence[str] = ()
    ) -> None:
        self.name = _check_name(name)
        self.help = help
        self.labelnames = tuple(labelnames)
        for label in self.labelnames:
            _check_name(label)
        self._children: Dict[Tuple[str, ...], Any] = {}

    def _make_child(self) -> Any:
        raise NotImplementedError

    def labels(self, *values: Any, **kwargs: Any) -> Any:
        """The child series for one label-value combination.

        Accepts positional values (in ``labelnames`` order) or
        keywords; values are stringified.  The child carries the
        instrument methods (``inc`` / ``set`` / ``observe`` / ...); a
        metric declared without labels has a single anonymous child the
        metric itself delegates to.
        """
        if values and kwargs:
            raise ValueError("pass label values positionally or by name, not both")
        if kwargs:
            if set(kwargs) != set(self.labelnames):
                raise ValueError(
                    f"{self.name} has labels {self.labelnames}, got "
                    f"{tuple(sorted(kwargs))}"
                )
            values = tuple(kwargs[name] for name in self.labelnames)
        if len(values) != len(self.labelnames):
            raise ValueError(
                f"{self.name} needs {len(self.labelnames)} label value(s), "
                f"got {len(values)}"
            )
        key = tuple(str(value) for value in values)
        child = self._children.get(key)
        if child is None:
            child = self._children[key] = self._make_child()
        return child

    def _default(self) -> Any:
        if self.labelnames:
            raise ValueError(
                f"{self.name} is labelled by {self.labelnames}; "
                f"call .labels(...) first"
            )
        return self.labels()

    def _sorted_children(self) -> List[Tuple[Tuple[str, ...], Any]]:
        return sorted(self._children.items())

    # -- rendering ------------------------------------------------------
    def render(self) -> List[str]:
        lines = [
            f"# HELP {self.name} {self.help}",
            f"# TYPE {self.name} {self.kind}",
        ]
        for key, child in self._sorted_children():
            suffix = _label_suffix(self.labelnames, key)
            lines.append(
                f"{self.name}{suffix} {_format_number(child.value)}"
            )
        return lines

    def snapshot_samples(self) -> List[Dict[str, Any]]:
        return [
            {
                "labels": dict(zip(self.labelnames, key)),
                "value": child.value,
            }
            for key, child in self._sorted_children()
        ]


class Counter(_Metric):
    """A monotonically non-decreasing count (push ``inc``, pull ``sync``)."""

    kind = "counter"

    def _make_child(self) -> _CounterChild:
        return _CounterChild()

    def inc(self, amount: float = 1.0) -> None:
        self._default().inc(amount)

    def sync(self, total: float) -> None:
        self._default().sync(total)

    @property
    def value(self) -> float:
        return self._default().value


class Gauge(_Metric):
    """A value that can go anywhere: queue depth, health bit, quantile."""

    kind = "gauge"

    def _make_child(self) -> _GaugeChild:
        return _GaugeChild()

    def set(self, value: float) -> None:
        self._default().set(value)

    def inc(self, amount: float = 1.0) -> None:
        self._default().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._default().dec(amount)

    @property
    def value(self) -> float:
        return self._default().value


class Histogram(_Metric):
    """A distribution, bucketed by upper bound (``+Inf`` implicit).

    Rendered cumulatively in the Prometheus text format
    (``_bucket{le=...}`` / ``_sum`` / ``_count``); the JSON snapshot
    keeps the per-bucket (non-cumulative) counts.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = CYCLE_BUCKETS,
    ) -> None:
        super().__init__(name, help, labelnames)
        bounds = tuple(sorted(float(bound) for bound in buckets))
        if not bounds:
            raise ValueError(f"{name}: a histogram needs at least one bucket")
        if len(set(bounds)) != len(bounds):
            raise ValueError(f"{name}: duplicate bucket bounds {bounds}")
        self.bounds = bounds

    def _make_child(self) -> _HistogramChild:
        return _HistogramChild(self.bounds)

    def observe(self, value: float) -> None:
        self._default().observe(value)

    def observe_many(self, values: Any) -> None:
        self._default().observe_many(values)

    def render(self) -> List[str]:
        lines = [
            f"# HELP {self.name} {self.help}",
            f"# TYPE {self.name} {self.kind}",
        ]
        for key, child in self._sorted_children():
            cumulative = 0
            for bound, count in zip(
                self.bounds + (float("inf"),), child.counts
            ):
                cumulative += count
                le = _format_number(bound)
                suffix = _label_suffix(
                    self.labelnames + ("le",), key + (le,)
                )
                lines.append(f"{self.name}_bucket{suffix} {cumulative}")
            suffix = _label_suffix(self.labelnames, key)
            lines.append(
                f"{self.name}_sum{suffix} {_format_number(child.sum)}"
            )
            lines.append(f"{self.name}_count{suffix} {child.count}")
        return lines

    def snapshot_samples(self) -> List[Dict[str, Any]]:
        samples = []
        for key, child in self._sorted_children():
            samples.append(
                {
                    "labels": dict(zip(self.labelnames, key)),
                    "buckets": [
                        [_format_number(bound), count]
                        for bound, count in zip(
                            self.bounds + (float("inf"),), child.counts
                        )
                    ],
                    "sum": child.sum,
                    "count": child.count,
                }
            )
        return samples


class Registry:
    """Named instruments plus scrape-time collectors.

    ``counter`` / ``gauge`` / ``histogram`` create-or-return (same name
    must mean same type and labels — a mismatch is a programming error
    and raises).  Collectors registered with
    :meth:`register_collector` run, in registration order, at the top
    of every :meth:`snapshot` / :meth:`render_prometheus` call; that is
    where pull-style instrumentation copies component counters in.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, _Metric] = {}
        self._collectors: List[Any] = []

    # -- declaration ----------------------------------------------------
    def _declare(self, factory, name: str, help: str, **kwargs) -> Any:
        existing = self._metrics.get(name)
        if existing is not None:
            if type(existing) is not factory:
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{type(existing).__name__}"
                )
            if existing.labelnames != tuple(kwargs.get("labelnames", ())):
                raise ValueError(
                    f"metric {name!r} already registered with labels "
                    f"{existing.labelnames}"
                )
            return existing
        metric = factory(name, help, **kwargs)
        self._metrics[name] = metric
        return metric

    def counter(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Counter:
        return self._declare(Counter, name, help, labelnames=labelnames)

    def gauge(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Gauge:
        return self._declare(Gauge, name, help, labelnames=labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = CYCLE_BUCKETS,
    ) -> Histogram:
        return self._declare(
            Histogram, name, help, labelnames=labelnames, buckets=buckets
        )

    def register_collector(self, collector) -> None:
        """Register ``collector()`` to run before every scrape."""
        self._collectors.append(collector)

    def collect(self) -> None:
        for collector in self._collectors:
            collector()

    # -- introspection --------------------------------------------------
    def get(self, name: str) -> Optional[_Metric]:
        return self._metrics.get(name)

    def names(self) -> List[str]:
        return sorted(self._metrics)

    # -- exposition -----------------------------------------------------
    def render_prometheus(self) -> str:
        """The registry in the Prometheus text exposition format."""
        self.collect()
        lines: List[str] = []
        for name in sorted(self._metrics):
            lines.extend(self._metrics[name].render())
        return "\n".join(lines) + "\n"

    def snapshot(self) -> Dict[str, Any]:
        """A JSON-safe dump: ``{name: {type, help, samples}}``."""
        self.collect()
        return {
            name: {
                "type": metric.kind,
                "help": metric.help,
                "samples": metric.snapshot_samples(),
            }
            for name, metric in sorted(self._metrics.items())
        }


#: The process-default registry; library code takes an explicit
#: ``registry=`` argument and only falls back to this.
_GLOBAL = Registry()


def get_registry() -> Registry:
    return _GLOBAL


def set_registry(registry: Registry) -> Registry:
    """Swap the process-default registry (tests); returns the old one."""
    global _GLOBAL
    old, _GLOBAL = _GLOBAL, registry
    return old
