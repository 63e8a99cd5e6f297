"""The ``repro serve`` daemon: asyncio listener, drain, health.

One :class:`ReproServer` owns a unix-socket or localhost-TCP
listener, a bounded thread executor that runs admitted requests
through :func:`repro.serve.engine.run_request`, the shared
:class:`~repro.serve.admission.AdmissionController`, and the global
block accounting the chaos harness audits.

Lifecycle contract (the tentpole's robustness surface):

* every inbound line is answered -- malformed input gets a typed
  ``error`` frame, overload gets a typed ``rejected`` frame, and an
  oversized line gets ``request-too-large`` before the connection is
  closed (the stream cannot be resynchronised past an unbounded
  line);
* a client that disconnects mid-stream does not waste the pool: its
  request is cancelled at the next block boundary and the remainder
  is *shed* (reason ``disconnect``) into the server accounting, so
  blocks are never silently lost;
* SIGTERM drains gracefully -- admission closes first (``draining``
  rejections), in-flight requests get ``drain_grace_s`` to finish,
  anything still running then sheds its remainder (reason ``drain``)
  and the process exits 0; a request wedged past ``drain_force_s``
  (no deadline, no block wall clock) is abandoned and reported so
  shutdown always terminates, with a non-zero exit.

Tests and the in-process harnesses (`loadtest --in-process`, ``chaos
--serve``) use :class:`BackgroundServer`, which runs the same server
on a daemon thread and exposes programmatic ``drain()``.

Telemetry: with ``telemetry=`` set, the daemon also serves the full
metrics registry as Prometheus text exposition over a loopback-only
HTTP listener (``GET /metrics``), including the
:class:`~repro.obs.expo.RollingWindow` sliding-window aggregates
(p50/p99 latency, queue depth, shed/reject rates).  The same payload
is available over the NDJSON socket as the ``metrics`` op, which is
what ``repro top`` polls.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import dataclasses
import os
import signal
import threading
import time
import uuid
from collections import OrderedDict
from dataclasses import dataclass, field

from repro.errors import JournalError, ReproError, RequestRejected
from repro.machine.presets import MACHINES
from repro.obs.expo import (
    EXPOSITION_CONTENT_TYPE,
    RollingWindow,
    render_exposition,
)
from repro.obs.metrics import (
    MetricsRegistry,
    record_overload_transition,
    record_request,
    record_wal_dedup,
    record_wal_recovery,
)
from repro.obs.trace import Tracer
from repro.runner.journal import read_snapshot, write_snapshot
from repro.runner.supervisor import CircuitBreaker, RetryPolicy
from repro.serve import protocol
from repro.serve.admission import AdmissionController
from repro.serve.engine import (
    cache_details,
    cache_stats,
    release_caches,
    request_blocks,
    run_request,
    warm_cache,
)
from repro.serve.overload import (
    L_BROWNOUT,
    L_EMERGENCY,
    L_SHED_OPTIONAL,
    LEVEL_NAMES,
    DegradationLadder,
    OverloadConfig,
    OverloadMonitor,
    OverloadSignals,
    Transition,
)
from repro.serve.protocol import (
    MAX_LINE_BYTES,
    REJECT_DUPLICATE,
    SHED_DISCONNECT,
    SHED_DRAIN,
    ScheduleRequest,
    parse_address,
)
from repro.serve.wal import (
    FINISHED_ABANDONED,
    FINISHED_ERROR,
    FINISHED_OK,
    WriteAheadLog,
)


@dataclass(frozen=True)
class ServeConfig:
    """Everything one daemon instance needs to know.

    Attributes:
        address: listen address (see
            :func:`~repro.serve.protocol.parse_address`).
        workers: executor threads = concurrently *running* requests;
            also the admission controller's ``max_active``.
        max_queued: admitted requests allowed to wait for a thread.
        jobs: per-request engine parallelism (``>= 2`` builds a
            supervised pool per request; 1 = serial in-process).
        tenant_rate / tenant_burst: per-tenant token bucket.
        tenant_max_blocks: per-tenant cumulative block budget
            (None = unlimited).
        max_request_blocks: largest admissible single request.
        block_wall_s: per-block wall-clock cap (tightened to the
            request's remaining deadline).
        max_work: per-attempt construction-work budget.
        default_deadline_s: applied to requests that carry none
            (None = no implicit deadline).
        drain_grace_s: seconds in-flight requests get to finish
            before the drain sheds their remainder.
        drain_force_s: hard backstop after the forced shed -- a
            request whose block never reaches a boundary (no deadline,
            no block wall clock) is *abandoned* once this expires so
            SIGTERM always terminates; abandoned ids are recorded in
            :attr:`ReproServer.drain_abandoned` and the CLI exits
            non-zero.
        cache_entries: LRU cap for each warm per-thread cache.
        chain: default builder fallback chain (request override wins).
        breaker: share one circuit breaker across requests (outcome-
            changing and load-sensitive, so opt-in, like everywhere
            else in the runner).
        mem_limit_mb / task_timeout / quarantine_dir: forwarded to
            the pooled engine path (``jobs >= 2``).
        chaos: seeded :class:`~repro.runner.chaos.ChaosConfig` fault
            injection for the pooled path -- the ``chaos --serve``
            harness's hook; never set in production.
        wal_dir: directory for the request WAL and warm-state
            snapshots.  When set, every acceptance / block result /
            terminal summary is fsynced *before* its frame crosses
            the socket, and startup replays the WAL (re-enqueueing
            incomplete requests, deduping finished idempotency keys).
            None disables durability (the in-memory dedup index still
            works for the life of the process).
        snapshot_every: finished requests between warm-state snapshot
            writes (admission budgets + cache stats); a snapshot is
            always written on drain.
        dedup_entries: LRU cap on the in-memory finished-key result
            store (the exactly-once answer index).
        telemetry: optional loopback HTTP listen address for the
            Prometheus exposition endpoint (``GET /metrics``); same
            accepted forms as ``address`` minus unix sockets.  When
            set and no registry was supplied, the server creates one
            so the endpoint is never empty.  None disables the
            listener (the ``metrics`` op still answers).
        overload: adaptive overload control -- the pressure monitor
            and degradation ladder of :mod:`repro.serve.overload`.
            The default config is conservative (the ladder sits at L0
            until a pressure signal approaches its budget); None
            disables the monitor entirely.
    """

    address: str
    workers: int = 2
    max_queued: int = 16
    jobs: int = 1
    tenant_rate: float = 50.0
    tenant_burst: float = 100.0
    tenant_max_blocks: int | None = None
    max_request_blocks: int = 10_000
    block_wall_s: float | None = 30.0
    max_work: int | None = None
    default_deadline_s: float | None = None
    drain_grace_s: float = 5.0
    drain_force_s: float = 10.0
    cache_entries: int = 512
    chain: tuple[str, ...] | None = None
    breaker: bool = False
    mem_limit_mb: int | None = None
    task_timeout: float | None = 60.0
    quarantine_dir: str | None = None
    chaos: object | None = None
    wal_dir: str | None = None
    snapshot_every: int = 8
    dedup_entries: int = 1024
    telemetry: str | None = None
    overload: OverloadConfig | None = field(
        default_factory=OverloadConfig)


@dataclass
class ServerStats:
    """Global request/block accounting (the ``stats`` endpoint).

    ``blocks_scheduled + blocks_degraded + blocks_quarantined +
    blocks_shed == blocks_admitted`` must hold once every admitted
    request has terminated; ``duplicate_blocks`` must stay 0.  The
    chaos harness asserts both.
    """

    requests_admitted: int = 0
    requests_completed: int = 0
    requests_errored: int = 0
    blocks_admitted: int = 0
    blocks_scheduled: int = 0
    blocks_degraded: int = 0
    blocks_quarantined: int = 0
    blocks_shed: int = 0
    shed_by_reason: dict[str, int] = field(default_factory=dict)
    duplicate_blocks: int = 0
    disconnects: int = 0
    requests_deduped: int = 0
    requests_recovered: int = 0
    wal_replayed: int = 0
    wal_dropped: int = 0

    @property
    def accounted(self) -> bool:
        """Every admitted block has exactly one verdict."""
        return (self.blocks_scheduled + self.blocks_degraded
                + self.blocks_quarantined + self.blocks_shed
                == self.blocks_admitted)

    def to_dict(self) -> dict:
        return {
            "requests_admitted": self.requests_admitted,
            "requests_completed": self.requests_completed,
            "requests_errored": self.requests_errored,
            "blocks_admitted": self.blocks_admitted,
            "blocks_scheduled": self.blocks_scheduled,
            "blocks_degraded": self.blocks_degraded,
            "blocks_quarantined": self.blocks_quarantined,
            "blocks_shed": self.blocks_shed,
            "shed_by_reason": dict(sorted(self.shed_by_reason.items())),
            "duplicate_blocks": self.duplicate_blocks,
            "disconnects": self.disconnects,
            "requests_deduped": self.requests_deduped,
            "requests_recovered": self.requests_recovered,
            "wal_replayed": self.wal_replayed,
            "wal_dropped": self.wal_dropped,
            "accounted": self.accounted,
        }


class _Active:
    """One in-flight request's server-side state.

    ``ticket`` is None for WAL-recovered requests (their admission was
    charged -- and snapshotted -- by a previous daemon generation).
    """

    def __init__(self, request: ScheduleRequest, ticket,
                 key: str | None = None) -> None:
        self.request = request
        self.ticket = ticket
        self.key = key
        self.cancel_reason: str | None = None
        self.seen: set[tuple[str, int]] = set()
        self.blocks: list = []
        self.result_blocks: dict[int, dict] = {}
        self.result_sheds: dict[int, str] = {}
        self.t0 = time.monotonic()


class ReproServer:
    """The daemon.  Create, then ``await run()`` (or use
    :class:`BackgroundServer`)."""

    def __init__(self, config: ServeConfig,
                 metrics: MetricsRegistry | None = None,
                 tracer: Tracer | None = None) -> None:
        self.config = config
        if metrics is None and config.telemetry is not None:
            # A telemetry endpoint with nothing behind it would scrape
            # empty; give it a registry.
            metrics = MetricsRegistry()
        self.metrics = metrics
        self.tracer = tracer
        self._tracer_lock = threading.Lock()
        #: sliding-window request aggregates (p50/p99, shed/reject
        #: rates, queue depth) behind the ``metrics`` op / endpoint
        self.window = RollingWindow()
        self._telemetry_server: asyncio.AbstractServer | None = None
        #: the degradation ladder + its monitor (None when disabled)
        self.ladder: DegradationLadder | None = None
        self.overload_monitor: OverloadMonitor | None = None
        self._overload_task: asyncio.Task | None = None
        if config.overload is not None:
            self.ladder = DegradationLadder(
                config.overload,
                on_transition=self._on_overload_transition)
            self.overload_monitor = OverloadMonitor(
                self.ladder, self._overload_signals,
                interval_s=config.overload.interval_s)
        self.admission = AdmissionController(
            max_active=config.workers,
            max_queued=config.max_queued,
            tenant_rate=config.tenant_rate,
            tenant_burst=config.tenant_burst,
            tenant_max_blocks=config.tenant_max_blocks,
            max_request_blocks=config.max_request_blocks,
            metrics=metrics,
            priority_tenants=frozenset(
                config.overload.priority_tenants)
            if config.overload is not None else frozenset(),
            overload_level=self.overload_level,
            completion_rate=self.window.completion_rate_rps)
        self.stats = ServerStats()
        self.breaker = (CircuitBreaker(metrics=metrics)
                        if config.breaker else None)
        self._stats_lock = threading.Lock()
        self._executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=config.workers,
            thread_name_prefix="repro-serve")
        self._retry = RetryPolicy(base_delay=0.01, max_delay=0.2)
        self._active: set[_Active] = set()
        self._conn_writers: set[asyncio.StreamWriter] = set()
        self._drain_forced = False
        self._drain_event: asyncio.Event | None = None
        self._early_drain = False
        self._recovery_task: asyncio.Task | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._server: asyncio.AbstractServer | None = None
        self._started = time.monotonic()
        self.ready_event = threading.Event()
        #: request ids abandoned by the drain backstop (see
        #: :attr:`ServeConfig.drain_force_s`); non-empty means the
        #: daemon should exit non-zero.
        self.drain_abandoned: list[str] = []

        # -- durability: WAL, dedup index, warm snapshot ------------------
        #: exactly-once answer store: key -> {"status", "summary",
        #: "blocks", "sheds"}; LRU-capped, seeded from WAL recovery.
        self._finished: OrderedDict[str, dict] = OrderedDict()
        self._inflight_keys: set[str] = set()
        self._recovered: list[dict] = []
        self._snapshot_loaded = False
        self.wal: WriteAheadLog | None = None
        if config.wal_dir is not None:
            os.makedirs(config.wal_dir, exist_ok=True)
            self.wal, recovery = WriteAheadLog.open(
                os.path.join(config.wal_dir, "serve.wal"))
            self.stats.wal_replayed = recovery.replayed
            self.stats.wal_dropped = recovery.dropped
            for key, entry in recovery.finished.items():
                self._remember_finished(key, entry)
            self._recovered = recovery.incomplete
            snapshot_path = os.path.join(config.wal_dir, "warm.json")
            if os.path.exists(snapshot_path):
                try:
                    payload = read_snapshot(snapshot_path)
                    self.admission.restore_state(
                        payload.get("admission", {}))
                    self._snapshot_loaded = True
                except JournalError:
                    # A bad snapshot is warm-state loss, not an
                    # integrity problem: start cold, let fsck report
                    # it.
                    self._snapshot_loaded = False
            if metrics is not None:
                record_wal_recovery(metrics, replayed=recovery.replayed,
                                    dropped=recovery.dropped,
                                    recovered=len(recovery.incomplete))

    def _remember_finished(self, key: str, entry: dict) -> None:
        """LRU-insert one finished key into the dedup index."""
        self._finished[key] = entry
        self._finished.move_to_end(key)
        while len(self._finished) > self.config.dedup_entries:
            self._finished.popitem(last=False)

    def _snapshot_path(self) -> str | None:
        if self.config.wal_dir is None:
            return None
        return os.path.join(self.config.wal_dir, "warm.json")

    def _write_warm_snapshot(self) -> None:
        """Checkpoint warm state (atomic tmp+fsync+rename)."""
        path = self._snapshot_path()
        if path is None:
            return
        write_snapshot(path, {
            "admission": self.admission.export_state(),
            "cache": cache_stats(),
        })

    # -- overload control ---------------------------------------------------

    def overload_level(self) -> int:
        """The degradation ladder's active level (0 when disabled)."""
        return self.ladder.level if self.ladder is not None else 0

    def _overload_signals(self) -> OverloadSignals:
        """One pressure sample (the monitor fills in lag and RSS).

        Uses the window's short-horizon reader, not the full 60s
        snapshot: p99 and queue depth must decay once pressure stops
        or the ladder cannot descend until old buckets expire.  Ten
        seconds (two buckets) keeps the saturation latch long enough
        to outlive any monitor interval and short enough that
        post-storm descent starts promptly.
        """
        recent = self.window.recent(10.0)
        return OverloadSignals(
            occupancy=self.admission.occupancy,
            capacity=self.config.workers + self.config.max_queued,
            queue_depth=recent["queue_depth_max"],
            p99_s=recent["p99_s"],
            wal_backlog=len(self._inflight_keys))

    def _on_overload_transition(self, event: Transition) -> None:
        """Count, trace, and act on one ladder transition."""
        record_overload_transition(
            self.metrics,
            from_level=LEVEL_NAMES[event.from_level],
            to_level=LEVEL_NAMES[event.to_level],
            direction=event.direction)
        if self.tracer is not None:
            with self._tracer_lock:
                self.tracer.event("overload-transition",
                                  **event.to_dict())
        if event.to_level >= L_EMERGENCY:
            # Emergency: nothing new admits, so the warm dependence
            # caches are the biggest reclaimable allocation left.
            release_caches()

    async def _overload_loop(self) -> None:
        """The monitor's periodic tick, on the event loop.

        Sleeping *on the loop* is what makes the lag signal honest:
        when the loop is starved the tick fires late and the monitor
        measures exactly that overshoot.
        """
        interval = self.overload_monitor.interval_s
        try:
            while True:
                await asyncio.sleep(interval)
                self.overload_monitor.tick()
        except asyncio.CancelledError:
            pass

    # -- frame plumbing -----------------------------------------------------

    async def _send(self, writer: asyncio.StreamWriter,
                    lock: asyncio.Lock, frame: dict) -> bool:
        """Write one frame; False when the client is gone."""
        async with lock:
            if writer.is_closing():
                return False
            try:
                writer.write(protocol.encode(frame))
                await writer.drain()
                return True
            except (ConnectionError, BrokenPipeError, OSError):
                return False

    def _account_frame(self, active: _Active, frame: dict) -> None:
        """Fold one streamed frame into the global accounting.

        Runs on the event loop (single-threaded per server), so the
        per-request dedup set needs no lock; the stats counters take
        one anyway because the engine summary path also touches them.
        """
        kind = frame.get("type")
        if kind == "block":
            key = ("block", frame["block"]["index"])
        elif kind == "shed":
            key = ("shed", frame["index"])
        else:
            return
        with self._stats_lock:
            if key in active.seen \
                    or ("block", key[1]) in active.seen \
                    or ("shed", key[1]) in active.seen:
                self.stats.duplicate_blocks += 1
                return
            active.seen.add(key)
            if kind == "shed":
                self.stats.blocks_shed += 1
                reason = frame["reason"]
                active.result_sheds[frame["index"]] = reason
                self.stats.shed_by_reason[reason] = \
                    self.stats.shed_by_reason.get(reason, 0) + 1
                self.window.observe_shed(1)
            else:
                record = frame["block"]
                active.result_blocks[record["index"]] = record
                if record.get("type") == "quarantined":
                    self.stats.blocks_quarantined += 1
                elif record.get("builder") is None:
                    self.stats.blocks_degraded += 1
                else:
                    self.stats.blocks_scheduled += 1

    # -- the ops ------------------------------------------------------------

    def _health_frame(self) -> dict:
        snapshot = self.admission.snapshot()
        frame = {
            "type": "health",
            "ok": True,
            "uptime_s": round(time.monotonic() - self._started, 3),
            "draining": snapshot["draining"],
            "occupancy": snapshot["occupancy"],
            "workers": self.config.workers,
            "cache": cache_stats(),
            "cache_threads": cache_details(),
            "wal": {
                "enabled": self.wal is not None,
                "replayed": self.stats.wal_replayed,
                "dropped": self.stats.wal_dropped,
                "recovered": self.stats.requests_recovered,
                "deduped": self.stats.requests_deduped,
                "inflight_keys": len(self._inflight_keys),
                "finished_keys": len(self._finished),
                "snapshot_loaded": self._snapshot_loaded,
            },
        }
        if self.ladder is not None:
            frame["overload"] = {
                "level": self.ladder.level,
                "level_name": self.ladder.level_name,
                "score": round(self.ladder.score, 4),
                "dominant": self.ladder.dominant,
            }
        if self.breaker is not None:
            frame["breaker"] = {
                b: self.breaker.state(b)
                for b, _ in self.breaker.transitions} or {}
        return frame

    def _ready_frame(self) -> dict:
        ok, reason = self.admission.would_admit()
        return {"type": "ready", "ok": ok, "reason": reason}

    def _stats_frame(self) -> dict:
        with self._stats_lock:
            stats = self.stats.to_dict()
        return {"type": "stats", "server": stats,
                "admission": self.admission.snapshot(),
                "cache": cache_stats(),
                "overload": (self.overload_monitor.snapshot()
                             if self.overload_monitor is not None
                             else {"enabled": False})}

    def exposition_text(self) -> str:
        """The full Prometheus exposition: registry + window + server.

        Deterministic for a given server state; the ``--telemetry``
        HTTP endpoint and the ``metrics`` op both serve exactly this
        text.
        """
        parts = []
        if self.metrics is not None:
            parts.append(render_exposition(self.metrics.snapshot()))
        parts.append(self.window.exposition())
        snapshot = self.admission.snapshot()
        server_lines = [
            "# HELP repro_serve_uptime_seconds Daemon uptime.",
            "# TYPE repro_serve_uptime_seconds gauge",
            f"repro_serve_uptime_seconds "
            f"{round(time.monotonic() - self._started, 3)}",
            "# HELP repro_serve_occupancy Admitted requests running "
            "or queued.",
            "# TYPE repro_serve_occupancy gauge",
            f"repro_serve_occupancy {snapshot['occupancy']}",
            "# HELP repro_serve_draining 1 once drain has begun.",
            "# TYPE repro_serve_draining gauge",
            f"repro_serve_draining {int(snapshot['draining'])}",
        ]
        if self.ladder is not None:
            server_lines += [
                "# HELP repro_overload_level Active degradation-"
                "ladder level (0 normal .. 4 emergency).",
                "# TYPE repro_overload_level gauge",
                f"repro_overload_level {self.ladder.level}",
                "# HELP repro_overload_max_level Highest ladder "
                "level reached since boot.",
                "# TYPE repro_overload_max_level gauge",
                f"repro_overload_max_level {self.ladder.max_level}",
            ]
        parts.append("\n".join(server_lines) + "\n")
        return "".join(parts)

    def _metrics_frame(self) -> dict:
        return {"type": "metrics",
                "content_type": EXPOSITION_CONTENT_TYPE,
                "exposition": self.exposition_text(),
                "window": self.window.snapshot()}

    # -- request execution --------------------------------------------------

    def _run_admitted(self, active: _Active, machine, blocks,
                      emit, completed: dict | None = None) -> dict:
        """Executor-thread body for one admitted request."""
        request = active.request
        if request.deadline_s is None \
                and self.config.default_deadline_s is not None:
            request = dataclasses.replace(
                request, deadline_s=self.config.default_deadline_s)
        cfg = self.config
        # Degradation overrides, latched at execution start (the
        # ladder may move mid-request; a request runs at one level):
        # L1+ drops optional work (trace detail, warm-cache head
        # room), L2+ swaps in the cheap brownout chain -- overriding
        # even the client's chain preference -- and caps per-request
        # parallelism.
        level = self.overload_level()
        chain = cfg.chain
        jobs = cfg.jobs
        cache_entries = cfg.cache_entries
        degraded_trace = False
        if cfg.overload is not None and level >= L_SHED_OPTIONAL:
            cache_entries = min(cache_entries,
                                cfg.overload.shed_cache_entries)
            degraded_trace = True
        if cfg.overload is not None and level >= L_BROWNOUT:
            chain = cfg.overload.brownout_chain
            jobs = min(jobs, cfg.overload.brownout_jobs)
            if request.chain is not None:
                request = dataclasses.replace(request, chain=None)
        # Each request records spans into a private tracer (the engine
        # runs on an executor thread); the entries are absorbed into
        # the server tracer afterwards under a lock, re-rooted, so
        # concurrent requests never interleave writes.
        private = Tracer(worker=request.id) \
            if self.tracer is not None and not degraded_trace else None
        try:
            return run_request(
                request, machine, blocks, emit,
                chain_names=chain,
                block_wall_s=cfg.block_wall_s,
                max_work=cfg.max_work,
                cache=warm_cache(request.machine, cache_entries),
                metrics=self.metrics,
                breaker=self.breaker,
                cancelled=lambda: active.cancel_reason
                or (SHED_DRAIN if self._drain_forced else None),
                jobs=jobs,
                chaos=cfg.chaos,
                retry=self._retry,
                task_timeout=cfg.task_timeout,
                quarantine_dir=cfg.quarantine_dir,
                mem_limit_mb=cfg.mem_limit_mb,
                completed=completed,
                tracer=private)
        finally:
            if private is not None and private.entries:
                with self._tracer_lock:
                    self.tracer.absorb(private.entries,
                                       worker=request.id)

    async def _replay_finished(self, writer, lock, rid: str, key: str,
                               entry: dict) -> None:
        """Answer a finished idempotency key from the result store.

        Nothing is recomputed and nothing is charged to admission:
        the recorded blocks, sheds, and summary stream back with the
        ``done`` frame marked ``deduped`` (exactly-once results).
        The frames echo the *original* request's trace id -- the one
        the recorded block records carry -- not a resend's, so the id
        that lived through the WAL is the id the client sees.
        """
        with self._stats_lock:
            self.stats.requests_deduped += 1
        if self.metrics is not None:
            record_wal_dedup(self.metrics)
        trace = (entry.get("request") or {}).get("trace")
        if trace is not None and not isinstance(trace, str):
            trace = None
        status = entry.get("status", FINISHED_OK)
        if status == FINISHED_OK:
            for index in sorted(entry.get("blocks", {})):
                await self._send(writer, lock, protocol.block_frame(
                    rid, entry["blocks"][index], trace=trace))
            for index in sorted(entry.get("sheds", {})):
                await self._send(writer, lock, protocol.shed_frame(
                    rid, index, entry["sheds"][index], trace=trace))
            await self._send(writer, lock, protocol.done_frame(
                rid, entry.get("summary", {}), deduped=True,
                trace=trace))
        else:
            await self._send(writer, lock, protocol.error_frame(
                rid, f"previous-attempt-{status}",
                f"idempotency key {key!r} already finished with "
                f"status {status!r}", code=500, trace=trace))

    async def _handle_schedule(self, message: dict,
                               writer: asyncio.StreamWriter,
                               lock: asyncio.Lock) -> None:
        loop = asyncio.get_running_loop()
        request = ScheduleRequest.from_message(message)
        if request.machine not in MACHINES:
            await self._send(writer, lock, protocol.error_frame(
                request.id, "unknown-machine",
                f"unknown machine {request.machine!r}; known: "
                f"{sorted(MACHINES)}", trace=request.trace))
            return
        key = request.key or f"auto-{uuid.uuid4().hex}"
        finished = self._finished.get(key)
        if finished is not None:
            self._finished.move_to_end(key)
            await self._replay_finished(writer, lock, request.id, key,
                                        finished)
            return
        if key in self._inflight_keys:
            self.admission.note_rejection(request.tenant,
                                          REJECT_DUPLICATE)
            self.window.observe_rejection()
            await self._send(writer, lock, protocol.rejected_frame(
                request.id, REJECT_DUPLICATE,
                detail=f"idempotency key {key!r} is already "
                       f"executing", trace=request.trace))
            return
        # Reserve the key before the first await so two pipelined
        # duplicates cannot both pass the checks above.
        self._inflight_keys.add(key)
        try:
            try:
                # Expansion can be big (parse + window): keep it off
                # the event loop so health/ready stay responsive under
                # load.  The block cap is enforced *inside* the
                # expansion so an oversized workload is rejected
                # before its source string is ever materialised.
                blocks = await loop.run_in_executor(
                    None, request_blocks, request,
                    self.config.max_request_blocks)
            except RequestRejected as exc:
                self.admission.note_rejection(request.tenant,
                                              exc.reason)
                self.window.observe_rejection()
                await self._send(writer, lock, protocol.rejected_frame(
                    request.id, exc.reason,
                    retry_after_s=exc.retry_after_s, detail=str(exc),
                    trace=request.trace))
                return
            except ReproError as exc:
                await self._send(writer, lock, protocol.error_frame(
                    request.id, type(exc).__name__, str(exc),
                    trace=request.trace))
                return
            try:
                ticket = self.admission.admit(request.tenant,
                                              len(blocks))
            except RequestRejected as exc:
                self.window.observe_rejection()
                await self._send(writer, lock, protocol.rejected_frame(
                    request.id, exc.reason,
                    retry_after_s=exc.retry_after_s, detail=str(exc),
                    trace=request.trace))
                return
            wal_message = dict(message)
            wal_message["key"] = key
            active = _Active(request, ticket, key=key)
            await self._execute(active, blocks, wal_message, writer,
                                lock)
        finally:
            self._inflight_keys.discard(key)

    async def _execute(self, active: _Active, blocks,
                       wal_message: dict,
                       writer: asyncio.StreamWriter | None,
                       lock: asyncio.Lock | None,
                       completed: dict | None = None,
                       log_accept: bool = True) -> None:
        """Run one admitted (or WAL-recovered) request to its end.

        The durability ordering is the whole point: acceptance is
        fsynced before the ``accepted`` frame, every block/shed record
        before its frame (inside ``emit``, on the engine thread), and
        the terminal record before the ``done``/``error`` frame.
        ``writer`` is None for recovered requests -- results then land
        only in the WAL and the dedup index, where the retrying client
        will find them.
        """
        loop = asyncio.get_running_loop()
        request = active.request
        key = active.key
        with self._stats_lock:
            self.stats.requests_admitted += 1
            self.stats.blocks_admitted += len(blocks)
        active.blocks = blocks
        self._active.add(active)
        if self.wal is not None and log_accept:
            await loop.run_in_executor(
                None, self.wal.log_accepted, key, wal_message,
                len(blocks))
        self.window.observe_queue_depth(self.admission.occupancy)
        if writer is not None:
            await self._send(writer, lock, protocol.accepted_frame(
                request.id, self.admission.occupancy, key,
                trace=request.trace))

        skip_wal = frozenset(completed or ())

        def emit(frame: dict) -> None:
            # Engine thread: fsync the record, then bridge to the
            # event loop.  Accounting happens on the loop so ordering
            # matches what the client observes; replayed indices are
            # already in the WAL and must not be re-logged.
            if self.wal is not None:
                kind = frame.get("type")
                if kind == "block" \
                        and frame["block"]["index"] not in skip_wal:
                    self.wal.log_block(key, frame["block"])
                elif kind == "shed" \
                        and frame["index"] not in skip_wal:
                    self.wal.log_shed(key, frame["index"],
                                      frame["reason"])

            def deliver() -> None:
                self._account_frame(active, frame)
                if writer is None:
                    return
                task = loop.create_task(self._send(writer, lock, frame))

                def on_sent(t) -> None:
                    if not t.cancelled() and t.exception() is None \
                            and t.result() is False \
                            and active.cancel_reason is None:
                        active.cancel_reason = SHED_DISCONNECT
                        with self._stats_lock:
                            self.stats.disconnects += 1
                task.add_done_callback(on_sent)
            loop.call_soon_threadsafe(deliver)

        machine = MACHINES[request.machine]()
        status = "ok"
        accounted = False

        def account_terminal(terminal_status: str) -> None:
            # Runs before the terminal frame leaves: a client that
            # scrapes the telemetry endpoint the instant it sees
            # ``done`` must find the request already counted in both
            # the registry and the sliding window.
            nonlocal accounted
            if accounted:
                return
            accounted = True
            elapsed = time.monotonic() - active.t0
            self.window.observe_request(terminal_status, elapsed)
            if self.metrics is not None:
                record_request(self.metrics, request.tenant,
                               terminal_status, elapsed)

        try:
            summary = await loop.run_in_executor(
                self._executor, self._run_admitted, active, machine,
                blocks, emit, completed)
            if self.wal is not None:
                await loop.run_in_executor(
                    None, self.wal.log_finished, key, FINISHED_OK,
                    summary)
            self._remember_finished(key, {
                "status": FINISHED_OK, "summary": summary,
                "blocks": dict(active.result_blocks),
                "sheds": dict(active.result_sheds),
                "request": dict(wal_message)})
            with self._stats_lock:
                self.stats.requests_completed += 1
            account_terminal("ok")
            if writer is not None:
                await self._send(writer, lock,
                                 protocol.done_frame(request.id,
                                                     summary,
                                                     trace=request.trace))
        except ReproError as exc:
            status = "error"
            # The request dies but its unprocessed blocks must not
            # vanish from the accounting: shed whatever has no frame.
            done = {idx for _, idx in active.seen}
            for block in blocks:
                if block.index not in done:
                    frame = protocol.shed_frame(
                        request.id, block.index, "error",
                        trace=request.trace)
                    if self.wal is not None \
                            and block.index not in skip_wal:
                        self.wal.log_shed(key, block.index, "error")
                    self._account_frame(active, frame)
            if self.wal is not None:
                await loop.run_in_executor(
                    None, self.wal.log_finished, key, FINISHED_ERROR,
                    {"error": str(exc)})
            self._remember_finished(key, {
                "status": FINISHED_ERROR,
                "summary": {"error": str(exc)},
                "blocks": {}, "sheds": {},
                "request": dict(wal_message)})
            with self._stats_lock:
                self.stats.requests_errored += 1
            account_terminal("error")
            if writer is not None:
                await self._send(writer, lock, protocol.error_frame(
                    request.id, type(exc).__name__, str(exc),
                    code=500, trace=request.trace))
        finally:
            self._active.discard(active)
            if active.ticket is not None:
                active.ticket.release()
            account_terminal(status)
            if self.config.wal_dir is not None:
                with self._stats_lock:
                    n_done = (self.stats.requests_completed
                              + self.stats.requests_errored)
                if n_done % max(1, self.config.snapshot_every) == 0:
                    await loop.run_in_executor(
                        None, self._write_warm_snapshot)

    async def _recover_incomplete(self) -> None:
        """Re-enqueue accepted-but-unfinished WAL requests.

        At-least-once execution: each recovered request runs through
        the normal engine with its already-recorded blocks passed as
        ``completed`` (re-emitted, never recomputed, never re-logged),
        so the WAL ends with exactly one record per (key, block).
        """
        loop = asyncio.get_running_loop()
        for entry in self._recovered:
            if self.admission.draining:
                break  # remaining entries stay durable for next boot
            key = entry["key"]
            if key in self._inflight_keys or key in self._finished:
                continue
            try:
                request = ScheduleRequest.from_message(entry["request"])
            except ReproError as exc:
                await loop.run_in_executor(
                    None, self.wal.log_finished, key, FINISHED_ERROR,
                    {"error": f"unreadable recovered request: {exc}"})
                continue
            if request.machine not in MACHINES:
                await loop.run_in_executor(
                    None, self.wal.log_finished, key, FINISHED_ERROR,
                    {"error": f"unknown machine {request.machine!r}"})
                continue
            self._inflight_keys.add(key)
            try:
                try:
                    blocks = await loop.run_in_executor(
                        None, request_blocks, request,
                        self.config.max_request_blocks)
                except ReproError as exc:
                    await loop.run_in_executor(
                        None, self.wal.log_finished, key,
                        FINISHED_ERROR, {"error": str(exc)})
                    continue
                completed = dict(entry["blocks"])
                for index, reason in entry["sheds"].items():
                    completed.setdefault(
                        index, {"type": "shed", "index": index,
                                "reason": reason})
                active = _Active(request, None, key=key)
                with self._stats_lock:
                    self.stats.requests_recovered += 1
                await self._execute(active, blocks, entry["request"],
                                    None, None, completed=completed,
                                    log_accept=False)
            finally:
                self._inflight_keys.discard(key)

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        lock = asyncio.Lock()
        # Completed tasks drop out via the done callback so a long-
        # lived pipelining client doesn't grow this set without bound.
        tasks: set[asyncio.Task] = set()
        self._conn_writers.add(writer)
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ConnectionError, OSError):
                    break  # abrupt client reset == EOF
                except (asyncio.LimitOverrunError, ValueError):
                    await self._send(writer, lock,
                                     protocol.rejected_frame(
                                         None, protocol.REJECT_TOO_LARGE,
                                         detail=f"request line exceeds "
                                                f"{MAX_LINE_BYTES} bytes"))
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                try:
                    message = protocol.decode(line)
                    op = message.get("op")
                    if op == "health":
                        await self._send(writer, lock,
                                         self._health_frame())
                    elif op == "ready":
                        await self._send(writer, lock,
                                         self._ready_frame())
                    elif op == "stats":
                        await self._send(writer, lock,
                                         self._stats_frame())
                    elif op == "metrics":
                        await self._send(writer, lock,
                                         self._metrics_frame())
                    elif op == "schedule":
                        # Run as a task so the reader keeps consuming
                        # (pipelined requests; disconnects detected).
                        task = asyncio.ensure_future(
                            self._handle_schedule(message, writer,
                                                  lock))
                        tasks.add(task)
                        task.add_done_callback(tasks.discard)
                    else:
                        await self._send(writer, lock,
                                         protocol.error_frame(
                                             message.get("id"),
                                             "unknown-op",
                                             f"unknown op {op!r}"))
                except ReproError as exc:
                    await self._send(writer, lock, protocol.error_frame(
                        None, type(exc).__name__, str(exc)))
        finally:
            self._conn_writers.discard(writer)
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    # -- telemetry HTTP endpoint --------------------------------------------

    async def _handle_telemetry(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        """One scrape: a minimal HTTP/1.0-style GET handler.

        Serves ``/metrics`` (Prometheus exposition) and ``/healthz``
        (the health frame as JSON).  One response per connection
        (``Connection: close``) -- scrapers poll, they don't pipeline.
        """
        import json as _json
        try:
            request_line = await asyncio.wait_for(reader.readline(),
                                                  timeout=5.0)
            parts = request_line.decode("latin-1").split()
            path = parts[1] if len(parts) >= 2 else "/"
            while True:  # drain headers
                header = await asyncio.wait_for(reader.readline(),
                                                timeout=5.0)
                if not header or header in (b"\r\n", b"\n"):
                    break
            if not parts or parts[0] != "GET":
                status, ctype, body = ("405 Method Not Allowed",
                                       "text/plain", b"GET only\n")
            elif path in ("/metrics", "/"):
                status = "200 OK"
                ctype = EXPOSITION_CONTENT_TYPE
                body = self.exposition_text().encode("utf-8")
            elif path == "/healthz":
                status = "200 OK"
                ctype = "application/json"
                body = (_json.dumps(self._health_frame(),
                                    sort_keys=True) + "\n").encode()
            else:
                status, ctype, body = ("404 Not Found", "text/plain",
                                       b"try /metrics or /healthz\n")
            writer.write((f"HTTP/1.0 {status}\r\n"
                          f"Content-Type: {ctype}\r\n"
                          f"Content-Length: {len(body)}\r\n"
                          f"Connection: close\r\n\r\n").encode())
            writer.write(body)
            await writer.drain()
        except (asyncio.TimeoutError, ConnectionError, OSError,
                UnicodeDecodeError):
            pass  # a broken scraper is its own problem
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    def bound_telemetry_address(self) -> str | None:
        """The telemetry endpoint's concrete host:port, or None."""
        if self._telemetry_server is None:
            return None
        host, port = \
            self._telemetry_server.sockets[0].getsockname()[:2]
        return f"{host}:{port}"

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        """Bind the listener and mark the server ready."""
        self._loop = asyncio.get_running_loop()
        self._drain_event = asyncio.Event()
        if self._early_drain:
            self._drain_event.set()
        parsed = parse_address(self.config.address, bind=True)
        if parsed[0] == "unix":
            self._server = await asyncio.start_unix_server(
                self._handle_connection, path=parsed[1],
                limit=MAX_LINE_BYTES)
        else:
            self._server = await asyncio.start_server(
                self._handle_connection, host=parsed[1],
                port=parsed[2], limit=MAX_LINE_BYTES)
        if self.config.telemetry is not None:
            # Same loopback-only enforcement as the main listener; a
            # unix path would technically work but scrapers speak TCP.
            tparsed = parse_address(self.config.telemetry, bind=True)
            if tparsed[0] != "tcp":
                raise ReproError(
                    f"telemetry address must be TCP "
                    f"(host:port or port), got {self.config.telemetry!r}")
            self._telemetry_server = await asyncio.start_server(
                self._handle_telemetry, host=tparsed[1],
                port=tparsed[2])
        if self.overload_monitor is not None:
            self._overload_task = asyncio.ensure_future(
                self._overload_loop())
        self.ready_event.set()
        if self._recovered:
            # Replay accepted-but-unfinished WAL work behind the
            # freshly-bound listener; new traffic interleaves freely.
            self._recovery_task = asyncio.ensure_future(
                self._recover_incomplete())

    def bound_address(self) -> str:
        """The concrete address (resolves port 0 after bind)."""
        parsed = parse_address(self.config.address)
        if parsed[0] == "unix":
            return f"unix:{parsed[1]}"
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return f"{host}:{port}"

    def request_drain(self) -> None:
        """Thread-safe drain trigger (what SIGTERM calls).

        Safe to call before the event loop exists: a SIGTERM that
        lands during startup is remembered and the daemon drains as
        soon as it comes up, instead of the signal being lost (or,
        worse, killing the process with state half-initialised).
        """
        if self._loop is not None:
            self._loop.call_soon_threadsafe(
                lambda: self._drain_event and self._drain_event.set())
        else:
            self._early_drain = True

    async def _drain(self) -> None:
        """Graceful shutdown: reject, grace, shed, exit."""
        self.admission.start_drain()
        if self._overload_task is not None:
            # The ladder's job is done once admission closes; freeze
            # it at its final level for the post-mortem stats frame.
            self._overload_task.cancel()
            try:
                await self._overload_task
            except asyncio.CancelledError:  # pragma: no cover
                pass
        deadline = time.monotonic() + self.config.drain_grace_s
        while self._active and time.monotonic() < deadline:
            await asyncio.sleep(0.02)
        if self._active:
            # Grace expired: in-flight engines shed their remainder
            # (typed reason "drain") at the next block boundary.
            self._drain_forced = True
            forced = time.monotonic() + self.config.drain_force_s
            while self._active and time.monotonic() < forced:
                await asyncio.sleep(0.02)
        if self._active:
            # Hard backstop: a block with no deadline and no wall
            # clock may never reach a boundary.  Abandon it (recorded,
            # surfaced as a non-zero exit) rather than spinning
            # forever on SIGTERM.
            self.drain_abandoned = sorted(
                a.request.id for a in self._active)
            if self.wal is not None:
                # Record the abandonment so a restart does not
                # resurrect work the operator explicitly cut loose:
                # unprocessed blocks become typed drain sheds and the
                # key terminates as "abandoned".
                for active in list(self._active):
                    if active.key is None:
                        continue
                    done = {idx for _, idx in active.seen}
                    for block in active.blocks:
                        if block.index not in done:
                            self.wal.log_shed(active.key, block.index,
                                              SHED_DRAIN)
                    self.wal.log_finished(active.key,
                                          FINISHED_ABANDONED,
                                          {"abandoned": True})
        self._server.close()
        await self._server.wait_closed()
        if self._telemetry_server is not None:
            self._telemetry_server.close()
            await self._telemetry_server.wait_closed()
        # Hang up on idle clients so their handlers unwind cleanly
        # (readline sees EOF) instead of being cancelled with the
        # loop.
        for writer in list(self._conn_writers):
            writer.close()
        deadline = time.monotonic() + 2.0
        while self._conn_writers and time.monotonic() < deadline:
            await asyncio.sleep(0.01)
        if self.drain_abandoned:
            # Abandoned engines are still wedged in their threads;
            # waiting on them would just re-create the hang.
            self._executor.shutdown(wait=False, cancel_futures=True)
        else:
            self._executor.shutdown(wait=True)
        if self.config.wal_dir is not None:
            try:
                self._write_warm_snapshot()
            except OSError:  # pragma: no cover - disk full at exit
                pass
        if self.wal is not None:
            self.wal.close()

    async def run(self, install_signals: bool = True) -> None:
        """Serve until drained.  Returns normally (exit 0) on
        SIGTERM/SIGINT or :meth:`request_drain`."""
        await self.start()
        if install_signals:
            loop = asyncio.get_running_loop()
            for sig in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(sig,
                                            self._drain_event.set)
                except (NotImplementedError, RuntimeError):
                    pass  # pragma: no cover - non-main thread
        await self._drain_event.wait()
        await self._drain()


class BackgroundServer:
    """Run a :class:`ReproServer` on a daemon thread.

    The in-process harnesses (tests, ``loadtest --in-process``,
    ``chaos --serve``) use this to get a real listening socket without
    a subprocess.  ``start()`` blocks until the listener is bound;
    ``drain()`` performs the same graceful shutdown SIGTERM would and
    joins the thread.
    """

    def __init__(self, config: ServeConfig,
                 metrics: MetricsRegistry | None = None,
                 tracer: Tracer | None = None) -> None:
        self.server = ReproServer(config, metrics=metrics,
                                  tracer=tracer)
        self._thread = threading.Thread(
            target=self._main, name="repro-serve-loop", daemon=True)
        self._error: BaseException | None = None

    def _main(self) -> None:
        try:
            asyncio.run(self.server.run(install_signals=False))
        except BaseException as exc:  # noqa: BLE001 - surfaced in join
            self._error = exc
            self.server.ready_event.set()

    def start(self, timeout: float = 10.0) -> "BackgroundServer":
        self._thread.start()
        if not self.server.ready_event.wait(timeout):
            raise ReproError("serve daemon did not become ready")
        if self._error is not None:
            raise ReproError(
                f"serve daemon failed to start: {self._error}")
        return self

    @property
    def address(self) -> str:
        return self.server.bound_address()

    def drain(self, timeout: float = 30.0) -> None:
        self.server.request_drain()
        self._thread.join(timeout)
        if self._thread.is_alive():
            raise ReproError("serve daemon did not drain in time")
        if self._error is not None:
            raise ReproError(f"serve daemon crashed: {self._error}")
