"""Prometheus text exposition and time-windowed rolling aggregates.

Two halves of the live telemetry plane:

* :func:`render_exposition` turns a
  :meth:`~repro.obs.metrics.MetricsRegistry.snapshot` document into
  the Prometheus text exposition format (version 0.0.4): ``# HELP`` /
  ``# TYPE`` headers plus one sample line per labelled series,
  histograms expanded into cumulative ``_bucket{le=...}`` samples with
  ``_sum``/``_count``.  Output is deterministic -- metric names, label
  sets, and bucket bounds come out sorted -- so two scrapes of the
  same registry state are byte-identical.
* :class:`RollingWindow` keeps a ring buffer of fixed-width time
  buckets over request latencies, queue depths, and shed/reject
  counts, so a scrape answers "what happened in the last minute"
  (sliding-window p50/p99 and rates) instead of only since-boot
  totals.  Expired buckets are recycled lazily on write/read; no
  background thread.  :meth:`RollingWindow.register` exposes it as
  ``repro_window_*`` gauges a registry reads at snapshot time.

:func:`parse_exposition` is the matching reader -- the telemetry
smoke tests and CI scrape the endpoint and assert the text parses
back into the families and samples they expect.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Mapping, Sequence

from repro.obs.metrics import REQUEST_SECONDS_BUCKETS, MetricsRegistry

#: exposition format version (the Prometheus text format identifier)
EXPOSITION_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def _escape_help(text: str) -> str:
    """Escape a HELP string (backslash and newline, per the spec)."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label_value(value: object) -> str:
    """Escape one label value (backslash, quote, newline)."""
    return (str(value).replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _parse_label_key(key: str, label_names: Sequence[str]) -> dict:
    """Invert :func:`repro.obs.metrics._label_key` (``"a=x,b=y"``).

    Values may themselves contain commas; segments without an ``=``
    are re-joined onto the previous value, so any value a recorded
    label ever carried parses back.
    """
    if not key:
        return {}
    parts: list[list[str]] = []
    for segment in key.split(","):
        if "=" in segment and (not parts
                               or len(parts) < len(label_names)):
            name, _, value = segment.partition("=")
            parts.append([name, value])
        elif parts:
            parts[-1][1] += "," + segment
        else:  # pragma: no cover - defensive (malformed key)
            parts.append([segment, ""])
    return {name: value for name, value in parts}


def _format_labels(labels: Mapping[str, object]) -> str:
    """Render a label dict as ``{a="x",b="y"}`` (sorted), or ``""``."""
    if not labels:
        return ""
    inner = ",".join(f'{k}="{_escape_label_value(labels[k])}"'
                     for k in sorted(labels))
    return "{" + inner + "}"


def _format_value(value: object) -> str:
    if isinstance(value, bool):  # pragma: no cover - defensive
        return "1" if value else "0"
    if isinstance(value, float):
        if value != value:  # NaN
            return "NaN"
        if value == float("inf"):
            return "+Inf"
        if value == float("-inf"):
            return "-Inf"
        return repr(value)
    return str(value)


def _metric_lines(name: str, metric: dict) -> list[str]:
    """The exposition lines for one snapshot metric entry (none for a
    metric without samples, such as a read that returned None)."""
    values = metric.get("values", {})
    if not values:
        return []
    kind = metric["kind"]
    label_names = metric.get("labels", [])
    lines = []
    if metric.get("help"):
        lines.append(f"# HELP {name} {_escape_help(metric['help'])}")
    lines.append(f"# TYPE {name} {kind}")
    for key in sorted(values):
        labels = _parse_label_key(key, label_names)
        if kind == "histogram":
            series = values[key]
            bounds = [str(b) for b in metric.get("bucket_bounds", [])]
            buckets = series.get("buckets", {})
            for bound in bounds + ["+Inf"]:
                bucket_labels = dict(labels)
                bucket_labels["le"] = bound
                lines.append(
                    f"{name}_bucket{_format_labels(bucket_labels)} "
                    f"{_format_value(buckets.get(bound, 0))}")
            lines.append(f"{name}_sum{_format_labels(labels)} "
                         f"{_format_value(series.get('sum', 0))}")
            lines.append(f"{name}_count{_format_labels(labels)} "
                         f"{_format_value(series.get('count', 0))}")
        else:
            lines.append(f"{name}{_format_labels(labels)} "
                         f"{_format_value(values[key])}")
    return lines


def render_exposition(snapshot: dict) -> str:
    """Render a metrics snapshot as Prometheus exposition text.

    Args:
        snapshot: a :meth:`~repro.obs.metrics.MetricsRegistry.\
snapshot` document (``{"stable": {...}, "volatile": {...}}``).
            Metric names are unique across the two sections, and both
            are exposed -- the stable/volatile split is a determinism
            contract, not a visibility one.

    Returns:
        The exposition text, ``\\n``-terminated, deterministic for a
        given snapshot (names, labels, and bounds sorted).
    """
    merged: dict[str, dict] = {}
    merged.update(snapshot.get("stable", {}))
    merged.update(snapshot.get("volatile", {}))
    lines: list[str] = []
    for name in sorted(merged):
        lines.extend(_metric_lines(name, merged[name]))
    return "\n".join(lines) + "\n" if lines else ""


def parse_exposition(text: str) -> tuple[dict, dict]:
    """Parse exposition text back into families and samples.

    The inverse reader the telemetry smoke tests use: it understands
    exactly the subset :func:`render_exposition` emits.

    Returns:
        ``(families, samples)`` -- ``families`` maps metric name to
        its TYPE; ``samples`` maps the full sample key (name plus the
        rendered label string) to its float value.

    Raises:
        ValueError: for a line that is neither a comment nor a
            parseable sample.
    """
    families: dict[str, str] = {}
    samples: dict[str, float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            name, _, kind = rest.partition(" ")
            families[name] = kind
            continue
        if line.startswith("#"):
            continue
        key, _, value = line.rpartition(" ")
        if not key:
            raise ValueError(f"unparseable exposition line: {line!r}")
        if value == "+Inf":
            samples[key] = float("inf")
        elif value == "-Inf":
            samples[key] = float("-inf")
        else:
            samples[key] = float(value)
    return families, samples


class RollingWindow:
    """Sliding-window request aggregates over a ring of time buckets.

    The ring holds ``n_buckets`` buckets of ``bucket_s`` seconds each
    (default 12 x 5s = a one-minute window).  Updates land in the
    bucket covering "now"; reads aggregate every bucket still inside
    the window, lazily discarding expired ones.  All updates take one
    lock, so engine threads and the asyncio loop can both write.

    Latencies are bucketed into ``latency_bounds`` (the same bounds as
    ``repro_request_seconds``), and window quantiles are read off the
    cumulative distribution the way ``histogram_quantile`` does: the
    reported pXX is the smallest bucket upper bound covering that
    fraction of the window's observations.
    """

    def __init__(self, window_s: float = 60.0, n_buckets: int = 12,
                 latency_bounds: Sequence[float] =
                 REQUEST_SECONDS_BUCKETS,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if n_buckets < 1 or window_s <= 0:
            raise ValueError("window needs >= 1 bucket and > 0 span")
        self.window_s = float(window_s)
        self.n_buckets = int(n_buckets)
        self.bucket_s = self.window_s / self.n_buckets
        self.latency_bounds = tuple(latency_bounds)
        self._clock = clock
        self._lock = threading.Lock()
        self._buckets = [self._fresh(-1) for _ in range(self.n_buckets)]

    def _fresh(self, epoch: int) -> dict:
        return {"epoch": epoch, "count": 0, "sum": 0.0,
                "bins": [0] * (len(self.latency_bounds) + 1),
                "statuses": {}, "rejections": 0, "shed": 0,
                "queue_depth_max": 0}

    def _bucket(self, now: float) -> dict:
        epoch = int(now // self.bucket_s)
        slot = self._buckets[epoch % self.n_buckets]
        if slot["epoch"] != epoch:
            slot = self._fresh(epoch)
            self._buckets[epoch % self.n_buckets] = slot
        return slot

    # -- writers --------------------------------------------------------------

    def observe_request(self, status: str, seconds: float) -> None:
        """Record one terminated request's status and latency."""
        with self._lock:
            slot = self._bucket(self._clock())
            slot["count"] += 1
            slot["sum"] += seconds
            slot["statuses"][status] = \
                slot["statuses"].get(status, 0) + 1
            for i, bound in enumerate(self.latency_bounds):
                if seconds <= bound:
                    slot["bins"][i] += 1
                    break
            else:
                slot["bins"][-1] += 1

    def observe_rejection(self) -> None:
        """Record one typed admission rejection."""
        with self._lock:
            self._bucket(self._clock())["rejections"] += 1

    def observe_shed(self, n: int = 1) -> None:
        """Record ``n`` shed blocks."""
        with self._lock:
            self._bucket(self._clock())["shed"] += n

    def observe_queue_depth(self, depth: int) -> None:
        """Record an admission occupancy observation."""
        with self._lock:
            slot = self._bucket(self._clock())
            if depth > slot["queue_depth_max"]:
                slot["queue_depth_max"] = depth

    # -- readers --------------------------------------------------------------

    def _sum_live(self, n_buckets: int) -> dict:
        """The newest ``n_buckets`` buckets folded into one (call with
        the lock held)."""
        floor = int(self._clock() // self.bucket_s) - n_buckets + 1
        total = self._fresh(floor)
        for b in self._buckets:
            if b["epoch"] < floor:
                continue
            total["count"] += b["count"]
            total["sum"] += b["sum"]
            total["bins"] = [x + y for x, y in zip(total["bins"],
                                                   b["bins"])]
            for status, n in b["statuses"].items():
                total["statuses"][status] = \
                    total["statuses"].get(status, 0) + n
            total["rejections"] += b["rejections"]
            total["shed"] += b["shed"]
            total["queue_depth_max"] = max(total["queue_depth_max"],
                                           b["queue_depth_max"])
        return total

    def _quantile(self, bins: Sequence[int], count: int,
                  q: float) -> float | None:
        """Smallest bucket bound covering fraction ``q`` of ``count``."""
        if count <= 0:
            return None
        target = q * count
        running = 0
        for bound, n in zip(self.latency_bounds, bins):
            running += n
            if running >= target:
                return float(bound)
        return float(self.latency_bounds[-1])

    def completion_rate_rps(self) -> float:
        """Request terminations per second over the live window.

        The admission controller derives honest ``retry_after_s``
        hints from it on every queue-full or overload rejection.
        """
        with self._lock:
            count = self._sum_live(self.n_buckets)["count"]
        return count / self.window_s

    def recent(self, horizon_s: float | None = None) -> dict:
        """Short-horizon aggregates for overload control.

        The full window answers dashboard questions ("the last
        minute"); a degradation ladder needs signals that *decay*
        once pressure stops, or it cannot descend until old buckets
        expire.  This aggregates only the buckets inside
        ``horizon_s`` (default: three buckets, 15s at the default
        geometry) -- p99 and queue depth over the recent past.
        """
        if horizon_s is None:
            horizon_s = 3 * self.bucket_s
        n = max(1, min(self.n_buckets,
                       int(round(horizon_s / self.bucket_s))))
        with self._lock:
            live = self._sum_live(n)
        return {
            "horizon_s": n * self.bucket_s,
            "requests": live["count"],
            "queue_depth_max": live["queue_depth_max"],
            "p99_s": self._quantile(live["bins"], live["count"], 0.99),
        }

    def snapshot(self) -> dict:
        """Aggregate the live window into one summary dict."""
        with self._lock:
            live = self._sum_live(self.n_buckets)
        count = live["count"]
        ok = live["statuses"].get("ok", 0)
        return {
            "window_s": self.window_s,
            "requests": count,
            "ok": ok,
            "errors": count - ok,
            "rejections": live["rejections"],
            "shed_blocks": live["shed"],
            "queue_depth_max": live["queue_depth_max"],
            "latency_sum_s": round(live["sum"], 6),
            "request_rate_rps": round(count / self.window_s, 4),
            "reject_rate_rps": round(live["rejections"] / self.window_s,
                                     4),
            "shed_rate_bps": round(live["shed"] / self.window_s, 4),
            "p50_s": self._quantile(live["bins"], count, 0.50),
            "p99_s": self._quantile(live["bins"], count, 0.99),
            "statuses": dict(sorted(live["statuses"].items())),
        }

    #: the ``repro_window_*`` gauges: name, help, :meth:`snapshot` key
    GAUGES = (
        ("repro_window_seconds",
         "Width of the sliding telemetry window.", "window_s"),
        ("repro_window_requests",
         "Requests terminated inside the window.", "requests"),
        ("repro_window_errors",
         "Non-ok request terminations inside the window.", "errors"),
        ("repro_window_rejections",
         "Typed admission rejections inside the window.",
         "rejections"),
        ("repro_window_shed_blocks",
         "Blocks shed inside the window.", "shed_blocks"),
        ("repro_window_queue_depth_max",
         "Deepest admission occupancy observed in the window.",
         "queue_depth_max"),
        ("repro_window_request_rate_rps",
         "Request terminations per second over the window.",
         "request_rate_rps"),
        ("repro_window_request_p50_seconds",
         "Sliding-window median request latency (bucket upper "
         "bound).", "p50_s"),
        ("repro_window_request_p99_seconds",
         "Sliding-window p99 request latency (bucket upper bound).",
         "p99_s"),
    )

    def register(self, metrics: MetricsRegistry) -> None:
        """Expose the window as ``repro_window_*`` read gauges.

        ``metrics`` reads them at every snapshot; the quantiles have no
        sample while the window is empty.
        """
        for name, help_text, key in self.GAUGES:
            metrics.gauge(name, help_text,
                          read=lambda key=key: self.snapshot()[key])
