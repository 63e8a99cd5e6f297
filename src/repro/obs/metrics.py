"""Typed metrics with labels and a deterministic, jobs-stable snapshot.

A :class:`MetricsRegistry` holds named :class:`Counter`,
:class:`Gauge`, and :class:`Histogram` metrics, each optionally
labelled (``counter.inc(5, builder="n2")``).  The registry's
:meth:`~MetricsRegistry.snapshot` is fully deterministic -- names,
label sets, and values come out sorted -- and is split into two
sections:

* **stable** -- quantities determined by the input program, machine,
  and chain alone: the Table 4/5 work counters, block structure
  (Table 3), makespans, fallback attempts, degradations.  These are
  byte-identical between ``--jobs 1`` and ``--jobs N`` runs (and with
  the pairwise cache on or off); CI enforces it.
* **volatile** -- quantities that legitimately depend on the execution
  configuration: wall-clock seconds, pairwise-cache hit/miss counts
  (each parallel worker warms its own cache, so hit totals shift with
  the worker count), and the supervised pool's resilience counters
  (crashes, retries, quarantines, breaker trips -- environment
  events, not program properties).

Registries cross the batch runner's process boundary as plain dicts:
a worker records per-block metrics into its own registry, ships
:meth:`~MetricsRegistry.dump`, and the parent
:meth:`~MetricsRegistry.merge`\\ s the dumps in program order.  Every
merge operation is commutative and associative (counters and
histogram bins add, gauges combine by their declared aggregation), so
the merged totals equal a serial run's.

The bottom of the module is the repro metric catalog: ``record_*``
helpers the instrumented layers call, so every recorded metric's name,
help string, and label set is defined in exactly one place (and
``docs/observability.md`` documents each one against the paper table
it reproduces).
"""

from __future__ import annotations

import json
import threading
from typing import Callable, Mapping, Sequence

#: schema version of the written metrics snapshot document
METRICS_SCHEMA_VERSION = 1

#: default histogram bucket upper bounds (block sizes, counts)
DEFAULT_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256)


def _label_key(label_names: tuple[str, ...],
               labels: Mapping[str, object]) -> str:
    """Canonical string form of one label set ("a=x,b=y", sorted)."""
    if set(labels) != set(label_names):
        raise ValueError(
            f"expected labels {sorted(label_names)}, "
            f"got {sorted(labels)}")
    return ",".join(f"{k}={labels[k]}" for k in sorted(label_names))


class Metric:
    """Shared shape of one named metric.

    Args:
        name: metric name (``repro_*_total`` for counters).
        help: one-line description.
        labels: label names every update must supply.
        volatile: True for configuration-sensitive quantities
            (excluded from the stable snapshot section).
        read: makes a counter or gauge read at snapshot time: returns
            the value (None = no sample) or, when labelled,
            ``{label-value tuple: value}``.  Live state is never
            program-determined, so a read metric is volatile.
    """

    kind = "abstract"

    def __init__(self, name: str, help: str,
                 labels: Sequence[str] = (),
                 volatile: bool = False,
                 read: Callable[[], object] | None = None) -> None:
        self.name = name
        self.help = help
        self.label_names = tuple(labels)
        self.volatile = volatile or read is not None
        self.read = read
        self.values: dict[str, object] = {}
        #: replaced by the owning registry's lock on registration
        self.lock = threading.RLock()

    def _snapshot_values(self) -> dict:
        if self.read is None:
            values = self.values
        elif not self.label_names:
            value = self.read()
            values = {} if value is None else {"": value}
        else:
            values = {
                _label_key(self.label_names,
                           dict(zip(self.label_names, label_values))): n
                for label_values, n in self.read().items()}
        return {key: values[key] for key in sorted(values)}

    def snapshot(self) -> dict:
        """JSON-ready form: kind, help, labels, sorted values."""
        return {"kind": self.kind, "help": self.help,
                "labels": list(self.label_names),
                "values": self._snapshot_values()}

    def merge_values(self, values: dict) -> None:
        """Fold another registry's values for this metric into ours."""
        raise NotImplementedError


class Counter(Metric):
    """A monotonically increasing sum (int or float)."""

    kind = "counter"

    def inc(self, amount: int | float = 1, **labels: object) -> None:
        """Add ``amount`` to the labelled series."""
        key = _label_key(self.label_names, labels)
        with self.lock:
            self.values[key] = self.values.get(key, 0) + amount

    def merge_values(self, values: dict) -> None:
        for key, value in values.items():
            self.values[key] = self.values.get(key, 0) + value


class Gauge(Metric):
    """A point-in-time value with a declared merge aggregation.

    The aggregation is part of the determinism contract: ``"max"`` is
    commutative and associative, so a gauge merged from parallel
    workers lands on the same value regardless of merge order and may
    live in the *stable* snapshot section.  ``"last"`` takes the
    caller's program order, which has no order-free parallel meaning
    -- so an ``agg="last"`` gauge must be declared ``volatile``, and
    the constructor rejects the stable combination outright rather
    than letting a ``--jobs 4`` snapshot silently diverge from
    ``--jobs 1``.

    Args:
        agg: how concurrent/sequential observations combine --
            ``"max"`` (default; commutative, so parallel merges are
            order-independent) or ``"last"`` (program-order overwrite;
            requires ``volatile=True``).
    """

    kind = "gauge"

    def __init__(self, name: str, help: str,
                 labels: Sequence[str] = (), volatile: bool = False,
                 agg: str = "max",
                 read: Callable[[], object] | None = None) -> None:
        if agg not in ("max", "last"):
            raise ValueError(f"unknown gauge aggregation {agg!r}")
        if agg == "last" and not volatile:
            raise ValueError(
                f"gauge {name!r}: agg='last' is merge-order dependent "
                f"and must be volatile (stable-section gauges need a "
                f"commutative aggregation such as 'max')")
        super().__init__(name, help, labels, volatile, read)
        self.agg = agg

    def set(self, value: int | float, **labels: object) -> None:
        """Observe a value (combined per the gauge's aggregation)."""
        key = _label_key(self.label_names, labels)
        with self.lock:
            if self.agg == "max" and key in self.values:
                if value <= self.values[key]:  # type: ignore[operator]
                    return
            self.values[key] = value

    def snapshot(self) -> dict:
        doc = super().snapshot()
        doc["agg"] = self.agg
        return doc

    def merge_values(self, values: dict) -> None:
        for key, value in values.items():
            if self.agg == "max" and key in self.values:
                if value <= self.values[key]:  # type: ignore[operator]
                    continue
            self.values[key] = value


class Histogram(Metric):
    """Bucketed observations: count, sum, cumulative bucket counts.

    Args:
        buckets: ascending upper bounds; an implicit ``+Inf`` bucket
            tops them off.
    """

    kind = "histogram"

    def __init__(self, name: str, help: str,
                 labels: Sequence[str] = (), volatile: bool = False,
                 buckets: Sequence[int | float] = DEFAULT_BUCKETS
                 ) -> None:
        super().__init__(name, help, labels, volatile)
        self.buckets = tuple(buckets)
        if list(self.buckets) != sorted(self.buckets):
            raise ValueError("histogram buckets must be ascending")

    def observe(self, value: int | float, **labels: object) -> None:
        """Record one observation."""
        key = _label_key(self.label_names, labels)
        with self.lock:
            series = self.values.get(key)
            if series is None:
                series = {"count": 0, "sum": 0,
                          "bins": [0] * (len(self.buckets) + 1)}
                self.values[key] = series
            series["count"] += 1  # type: ignore[index]
            series["sum"] += value  # type: ignore[index]
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    series["bins"][i] += 1  # type: ignore[index]
                    break
            else:
                series["bins"][-1] += 1  # type: ignore[index]

    def _snapshot_values(self) -> dict:
        out = {}
        for key in sorted(self.values):
            series = self.values[key]
            cumulative: dict[str, int] = {}
            running = 0
            for bound, count in zip(self.buckets, series["bins"]):
                running += count
                cumulative[str(bound)] = running
            cumulative["+Inf"] = running + series["bins"][-1]
            out[key] = {"count": series["count"],
                        "sum": series["sum"], "buckets": cumulative}
        return out

    def snapshot(self) -> dict:
        doc = super().snapshot()
        doc["bucket_bounds"] = list(self.buckets)
        return doc

    def merge_values(self, values: dict) -> None:
        for key, series in values.items():
            mine = self.values.get(key)
            if mine is None:
                self.values[key] = {
                    "count": series["count"], "sum": series["sum"],
                    "bins": list(series["bins"])}
                continue
            mine["count"] += series["count"]
            mine["sum"] += series["sum"]
            mine["bins"] = [a + b for a, b in zip(mine["bins"],
                                                  series["bins"])]


class MetricsRegistry:
    """A named collection of metrics with deterministic snapshots.

    Metric accessors (:meth:`counter`, :meth:`gauge`,
    :meth:`histogram`) are get-or-create: the first call defines the
    metric, later calls return the existing one (and reject a
    conflicting redefinition), so ``record_*`` helpers can call them
    unconditionally on every observation.  Defining a read metric
    again rebinds it to the newest owner.  One re-entrant lock guards
    every update, merge and snapshot.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Metric] = {}
        self._lock = threading.RLock()

    def __bool__(self) -> bool:
        return True

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def _get_or_create(self, cls, name: str, help: str,
                       labels: Sequence[str], volatile: bool,
                       **extra: object) -> Metric:
        volatile = volatile or extra.get("read") is not None
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = cls(name, help, labels, volatile, **extra)
                metric.lock = self._lock
                self._metrics[name] = metric
                return metric
            read = extra.get("read")
            if not isinstance(metric, cls) \
                    or metric.label_names != tuple(labels) \
                    or metric.volatile != volatile \
                    or (metric.read is None) != (read is None):
                raise ValueError(
                    f"metric {name!r} already registered with a "
                    f"different definition")
            if read is not None:
                metric.read = read
            return metric

    def counter(self, name: str, help: str = "",
                labels: Sequence[str] = (),
                volatile: bool = False,
                read: Callable[[], object] | None = None) -> Counter:
        """Get or create a counter (``read``: see :class:`Metric`)."""
        return self._get_or_create(Counter, name, help, labels,
                                   volatile,
                                   read=read)  # type: ignore[return-value]

    def gauge(self, name: str, help: str = "",
              labels: Sequence[str] = (), volatile: bool = False,
              agg: str = "max",
              read: Callable[[], object] | None = None) -> Gauge:
        """Get or create a gauge (``read``: see :class:`Metric`)."""
        return self._get_or_create(Gauge, name, help, labels,
                                   volatile, agg=agg,
                                   read=read)  # type: ignore[return-value]

    def histogram(self, name: str, help: str = "",
                  labels: Sequence[str] = (), volatile: bool = False,
                  buckets: Sequence[int | float] = DEFAULT_BUCKETS
                  ) -> Histogram:
        """Get or create a histogram."""
        return self._get_or_create(
            Histogram, name, help, labels, volatile,
            buckets=buckets)  # type: ignore[return-value]

    def value(self, name: str, default: object = None,
              **labels: object) -> object:
        """One metric series' current value (reports, tests)."""
        metric = self._metrics.get(name)
        if metric is None:
            return default
        key = _label_key(metric.label_names, labels)
        with self._lock:
            return metric.values.get(key, default)

    def snapshot(self) -> dict:
        """The full snapshot document: stable + volatile sections.

        The ``stable`` section is byte-stable across ``--jobs N`` and
        cache configurations; everything configuration-sensitive is
        confined to ``volatile``.  Reads run outside the lock: an owner
        such as the admission controller records here while holding
        its own lock, so reading it under ours could deadlock.
        """
        with self._lock:
            metrics = sorted(self._metrics.items())
            docs = {name: metric.snapshot() for name, metric in metrics
                    if metric.read is None}
        stable: dict[str, dict] = {}
        volatile: dict[str, dict] = {}
        for name, metric in metrics:
            (volatile if metric.volatile else stable)[name] = \
                docs[name] if name in docs else metric.snapshot()
        return {"schema_version": METRICS_SCHEMA_VERSION,
                "stable": stable, "volatile": volatile}

    def dump(self) -> list[dict]:
        """Picklable full state, for crossing process boundaries."""
        out = []
        with self._lock:
            for name in sorted(self._metrics):
                metric = self._metrics[name]
                entry = {"name": name, "kind": metric.kind,
                         "help": metric.help,
                         "labels": list(metric.label_names),
                         "volatile": metric.volatile,
                         "values": metric.values}
                if isinstance(metric, Gauge):
                    entry["agg"] = metric.agg
                if isinstance(metric, Histogram):
                    entry["buckets"] = list(metric.buckets)
                out.append(entry)
        return out

    def merge(self, dumped: list[dict]) -> None:
        """Fold a :meth:`dump` from another registry into this one.

        Unknown metrics are registered on the fly; known ones combine
        values (counters and histogram bins add, gauges aggregate).
        Call in program order -- every combination is commutative
        except ``agg="last"`` gauges, which take the caller's order.
        """
        with self._lock:
            for entry in dumped:
                name = entry["name"]
                kind = entry["kind"]
                if kind == "counter":
                    metric: Metric = self.counter(
                        name, entry["help"], entry["labels"],
                        entry["volatile"])
                elif kind == "gauge":
                    metric = self.gauge(name, entry["help"],
                                        entry["labels"],
                                        entry["volatile"],
                                        agg=entry.get("agg", "max"))
                elif kind == "histogram":
                    metric = self.histogram(
                        name, entry["help"], entry["labels"],
                        entry["volatile"],
                        buckets=entry.get("buckets", DEFAULT_BUCKETS))
                else:
                    raise ValueError(f"unknown metric kind {kind!r}")
                metric.merge_values(entry["values"])


def write_metrics(registry: MetricsRegistry, path: str) -> None:
    """Write the snapshot document as stable, diff-friendly JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(registry.snapshot(), handle, indent=2,
                  sort_keys=True)
        handle.write("\n")


def read_metrics(path: str) -> dict:
    """Load a snapshot document written by :func:`write_metrics`."""
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


# -- the repro metric catalog ----------------------------------------------
#
# One helper per instrumentation site; each defines its metric names,
# help strings, and labels exactly once.  All take the registry first
# and are no-ops when it is None, so call sites stay one-liners.  The
# daemon's read metrics are defined where their owners register them
# (``ReproServer``, ``RollingWindow.register``).

#: BuildStats fields mirrored into per-builder counters
_BUILD_COUNTER_FIELDS = (
    ("comparisons", "Node-pair dependence tests (Table 4's n**2 "
                    "cost)."),
    ("table_probes", "Resource-table lookups (Table 5's "
                     "table-building cost)."),
    ("alias_checks", "Unique memory-expression pairs disambiguated."),
    ("arcs_added", "Arcs present in finished DAGs."),
    ("arcs_merged", "Duplicate (parent, child) arcs merged away."),
    ("arcs_suppressed", "Arcs skipped by reachability-bitmap "
                        "insertion."),
    ("bitmap_ops", "Reachability-bitmap queries and updates."),
)


def record_build(metrics: MetricsRegistry | None, builder: str,
                 stats: object, words_touched: int = 0) -> None:
    """Record one accepted construction's work counters (Tables 4/5).

    Args:
        metrics: the registry (None = off).
        builder: chain/CLI name of the builder that built the DAG.
        stats: a :class:`~repro.dag.builders.base.BuildStats`-shaped
            object (duck-typed to avoid an import cycle).
        words_touched: reachability-map words the build touched.
    """
    if metrics is None:
        return
    metrics.counter("repro_build_blocks_total",
                    "Accepted DAG constructions per builder.",
                    labels=("builder",)).inc(1, builder=builder)
    for field, help_text in _BUILD_COUNTER_FIELDS:
        metrics.counter(f"repro_build_{field}_total", help_text,
                        labels=("builder",)).inc(
            getattr(stats, field), builder=builder)
    metrics.counter("repro_bitmap_words_touched_total",
                    "Reachability-map words initialized or OR-ed "
                    "(bitmap cost of Table 5).",
                    labels=("builder",)).inc(words_touched,
                                             builder=builder)
    metrics.gauge("repro_block_arcs_max",
                  "Largest per-block arc count (Table 4/5 arcs/bb "
                  "max).").set(getattr(stats, "arcs_added", 0))


def record_block_structure(metrics: MetricsRegistry | None,
                           n_instructions: int,
                           n_mem_exprs: int) -> None:
    """Record one block's structural numbers (Table 3)."""
    if metrics is None:
        return
    metrics.counter("repro_blocks_total",
                    "Basic blocks processed.").inc(1)
    metrics.counter("repro_instructions_total",
                    "Instructions processed.").inc(n_instructions)
    metrics.gauge("repro_block_size_max",
                  "Largest block, in instructions (Table 3 insts/bb "
                  "max).").set(n_instructions)
    metrics.histogram("repro_block_size_instructions",
                      "Block size distribution (Table 3 insts/bb)."
                      ).observe(n_instructions)
    metrics.counter("repro_mem_exprs_total",
                    "Unique memory expressions, summed over blocks "
                    "(Table 3 memexpr/bb avg numerator)."
                    ).inc(n_mem_exprs)
    metrics.gauge("repro_mem_exprs_max",
                  "Largest per-block unique-memory-expression count "
                  "(Table 3 memexpr/bb max).").set(n_mem_exprs)


def record_outcome(metrics: MetricsRegistry | None,
                   outcome: object, replayed: bool = False) -> None:
    """Record one block outcome's schedule and fallback accounting.

    Args:
        metrics: the registry (None = off).
        outcome: a :class:`~repro.runner.fallback.BlockOutcome`-shaped
            object (``makespan``, ``original_makespan``, ``degraded``,
            ``attempts`` with ``builder``/``stage``/``work``).
        replayed: True when the outcome came from a journal.
    """
    if metrics is None:
        return
    metrics.counter("repro_makespan_cycles_total",
                    "Accepted-schedule makespans, summed (Table 5 "
                    "end-to-end quality).").inc(outcome.makespan)
    metrics.counter("repro_original_makespan_cycles_total",
                    "Original-order makespans, summed.").inc(
        outcome.original_makespan)
    if outcome.degraded:
        metrics.counter("repro_blocks_degraded_total",
                        "Blocks that fell back to original order."
                        ).inc(1)
        metrics.counter("repro_degraded_makespan_cycles_total",
                        "Makespan charged by degraded blocks."
                        ).inc(outcome.makespan)
    if replayed:
        metrics.counter("repro_blocks_replayed_total",
                        "Blocks replayed from a journal instead of "
                        "recomputed.").inc(1)
    attempts = list(outcome.attempts)
    for attempt in attempts:
        metrics.counter("repro_fallback_attempts_total",
                        "Builder attempts by chain entry and final "
                        "stage ('ok' = accepted).",
                        labels=("builder", "stage")).inc(
            1, builder=attempt.builder, stage=attempt.stage)
    for attempt in attempts[:-1]:
        if attempt.work is not None:
            metrics.counter("repro_fallback_wasted_work_total",
                            "Construction work spent on rejected "
                            "chain attempts.").inc(attempt.work)
    for attempt in attempts:
        if attempt.work is not None:
            metrics.counter("repro_watchdog_work_spent_total",
                            "Budgeted construction work across all "
                            "attempts (comparisons + probes + alias "
                            "checks + bitmap ops).").inc(attempt.work)


def record_block_wall(metrics: MetricsRegistry | None,
                      seconds: float) -> None:
    """Record one block's wall-clock spend (volatile)."""
    if metrics is None:
        return
    metrics.counter("repro_block_wall_seconds_total",
                    "Wall-clock seconds spent scheduling blocks "
                    "(host- and load-dependent).",
                    volatile=True).inc(seconds)


def record_cache(metrics: MetricsRegistry | None, hits: int,
                 misses: int, entries: int | None = None,
                 recipes: int | None = None) -> None:
    """Record pairwise-cache activity (volatile: each parallel worker
    warms its own cache, so totals shift with the worker count), and
    with ``entries`` the cache's final size."""
    if metrics is None:
        return
    metrics.counter("repro_cache_hits_total",
                    "PairwiseCache recipe replays.",
                    volatile=True).inc(hits)
    metrics.counter("repro_cache_misses_total",
                    "PairwiseCache fresh constructions.",
                    volatile=True).inc(misses)
    if entries is not None:
        read_cache_size(metrics, lambda: {"entries": entries,
                                          "recipes": recipes})


def read_cache_size(metrics: MetricsRegistry | None,
                    info: Callable[[], Mapping[str, int]]) -> None:
    """Expose a cache's size as gauges read at every snapshot.

    Args:
        metrics: the registry (None = off).
        info: returns ``entries`` and ``recipes`` -- a
            :meth:`~repro.dag.builders.cache.PairwiseCache.info`, or
            the daemon's total over its warm caches.
    """
    if metrics is None:
        return
    metrics.gauge("repro_cache_entries",
                  "Distinct block fingerprints cached.",
                  read=lambda: info()["entries"])
    metrics.gauge("repro_cache_recipes",
                  "Recorded per-builder arc recipes.",
                  read=lambda: info()["recipes"])


def record_verify_check(metrics: MetricsRegistry | None, check: str,
                        passed: bool) -> None:
    """Record one independent-verification check outcome."""
    if metrics is None:
        return
    metrics.counter("repro_verify_checks_total",
                    "Independent verification checks by name and "
                    "result.",
                    labels=("check", "result")).inc(
        1, check=check, result="pass" if passed else "fail")


def record_incremental_repair(metrics: MetricsRegistry | None,
                              visited: int, full_nodes: int) -> None:
    """Record one incremental heuristic repair's frontier size.

    Args:
        metrics: the registry (None = off).
        visited: nodes the frontier worklists actually recomputed.
        full_nodes: nodes the replaced full passes would have visited
            (2x the DAG's real-node count: forward + backward).
    """
    if metrics is None:
        return
    metrics.counter("repro_incremental_nodes_visited_total",
                    "Nodes recomputed by incremental heuristic "
                    "repair.").inc(visited)
    metrics.counter("repro_incremental_full_pass_nodes_total",
                    "Nodes a full forward+backward re-pass would "
                    "have visited instead.").inc(full_nodes)


# -- resilience (supervised pool) ------------------------------------------
#
# All volatile: crashes, retries, and breaker trips depend on the
# execution environment (signals, memory pressure, injected chaos,
# worker count), never on the input program alone.  The stable section
# must stay byte-identical between a clean ``--jobs 1`` and
# ``--jobs N`` run, and these fire only when workers actually die.


def record_worker_crash(metrics: MetricsRegistry | None,
                        kind: str) -> None:
    """Record one worker death attributed to a running task.

    Args:
        metrics: the registry (None = off).
        kind: crash classification -- ``"signal N"``, ``"exit N"``,
            ``"hang"``, or ``"task-error"`` (worker survived but the
            task payload was unusable).
    """
    if metrics is None:
        return
    metrics.counter("repro_worker_crashes_total",
                    "Worker deaths attributed to a running block, "
                    "by crash kind.",
                    labels=("kind",), volatile=True).inc(1, kind=kind)


def record_worker_restart(metrics: MetricsRegistry | None) -> None:
    """Record one replacement worker spawn."""
    if metrics is None:
        return
    metrics.counter("repro_worker_restarts_total",
                    "Replacement workers spawned after a death.",
                    volatile=True).inc(1)


def record_retry(metrics: MetricsRegistry | None) -> None:
    """Record one block re-enqueue after a crash or poisoned payload."""
    if metrics is None:
        return
    metrics.counter("repro_retries_total",
                    "Block re-enqueues after worker crashes (with "
                    "exponential backoff).", volatile=True).inc(1)


def record_quarantine(metrics: MetricsRegistry | None) -> None:
    """Record one block quarantined after exhausting its retries."""
    if metrics is None:
        return
    metrics.counter("repro_quarantined_blocks_total",
                    "Blocks quarantined after exhausting the retry "
                    "budget.", volatile=True).inc(1)


# -- serving (repro serve / loadtest) --------------------------------------
#
# All volatile: request latencies and rejection counts depend on
# arrival timing and host load, never on the input program alone.

#: request latency histogram bucket bounds, seconds
REQUEST_SECONDS_BUCKETS = (0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
                           1.0, 2.5, 5.0, 10.0)


def record_request(metrics: MetricsRegistry | None, tenant: str,
                   status: str, seconds: float | None = None) -> None:
    """Record one served request's terminal status (and latency).

    Args:
        metrics: the registry (None = off).
        tenant: the tenant the request was charged to.
        status: terminal status -- ``"ok"``, ``"timeout"`` (deadline
            expired mid-batch), ``"cancelled"`` (client disconnect or
            drain kill), or ``"error"``.
        seconds: end-to-end request latency (None for requests that
            never started executing).
    """
    if metrics is None:
        return
    metrics.counter("repro_requests_total",
                    "Served requests by tenant and terminal status.",
                    labels=("tenant", "status"), volatile=True).inc(
        1, tenant=tenant, status=status)
    if seconds is not None:
        metrics.histogram("repro_request_seconds",
                          "End-to-end request latency, seconds.",
                          volatile=True,
                          buckets=REQUEST_SECONDS_BUCKETS
                          ).observe(seconds)


def record_rejection(metrics: MetricsRegistry | None, tenant: str,
                     reason: str) -> None:
    """Record one typed admission-control rejection (never silent)."""
    if metrics is None:
        return
    metrics.counter("repro_rejected_requests_total",
                    "Requests refused by admission control, by tenant "
                    "and reason.",
                    labels=("tenant", "reason"), volatile=True).inc(
        1, tenant=tenant, reason=reason)


def record_deadline(metrics: MetricsRegistry | None,
                    met: bool) -> None:
    """Record whether one deadline-carrying request met its deadline."""
    if metrics is None:
        return
    metrics.counter("repro_request_deadlines_total",
                    "Deadline-carrying requests by outcome.",
                    labels=("result",), volatile=True).inc(
        1, result="met" if met else "missed")


def record_breaker_transition(metrics: MetricsRegistry | None,
                              builder: str, to_state: str,
                              state_code: int) -> None:
    """Record one circuit-breaker state transition.

    Args:
        metrics: the registry (None = off).
        builder: chain entry whose breaker moved.
        to_state: "closed", "open", or "half-open".
        state_code: numeric encoding for the state gauge (0 closed,
            1 half-open, 2 open).
    """
    if metrics is None:
        return
    metrics.counter("repro_breaker_transitions_total",
                    "Circuit-breaker state transitions by builder "
                    "and target state.",
                    labels=("builder", "state"), volatile=True).inc(
        1, builder=builder, state=to_state)
    metrics.gauge("repro_breaker_state",
                  "Current breaker state per builder (0 closed, "
                  "1 half-open, 2 open).",
                  labels=("builder",), volatile=True,
                  agg="last").set(state_code, builder=builder)


def record_overload_transition(metrics: MetricsRegistry | None,
                               from_level: str, to_level: str,
                               direction: str) -> None:
    """Record one degradation-ladder transition.

    The live level itself is the daemon's ``repro_overload_level``
    gauge, read from the ladder at scrape time, so only the transition
    counter lives here.

    Args:
        metrics: the registry (None = off).
        from_level / to_level: level names (e.g. "normal",
            "brownout").
        direction: "ascend" or "descend".
    """
    if metrics is None:
        return
    metrics.counter("repro_overload_transitions_total",
                    "Degradation-ladder transitions by source, "
                    "target, and direction.",
                    labels=("from", "to", "direction"),
                    volatile=True).inc(
        1, **{"from": from_level, "to": to_level,
              "direction": direction})


def record_overload_rejection(metrics: MetricsRegistry | None,
                              tenant_class: str) -> None:
    """Record one typed ``overload`` rejection by tenant class."""
    if metrics is None:
        return
    metrics.counter("repro_overload_rejections_total",
                    "Requests shed by the degradation ladder, by "
                    "tenant priority class.",
                    labels=("tenant_class",), volatile=True).inc(
        1, tenant_class=tenant_class)
