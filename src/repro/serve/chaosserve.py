"""``repro chaos --serve``: chaos against a live serve daemon.

The batch chaos harness (:mod:`repro.runner.chaos`) proves the
supervised pool survives worker death; this one proves the *daemon*
survives everything around the pool at the same time:

* **worker crashes** -- the server runs its engine with ``jobs >= 2``
  and a seeded :class:`~repro.runner.chaos.ChaosConfig`, so blocks
  die mid-flight inside real worker processes and are retried or
  quarantined while results stream;
* **client disconnects** -- a seeded fraction of clients hang up
  mid-stream; the server must shed the remainder (reason
  ``disconnect``) instead of losing it or wedging a worker slot;
* **deadline storms** -- a seeded fraction of requests carry
  deadlines too small for their block count, forcing mid-batch
  shedding under load.

The verdict comes from the server's own ``stats`` endpoint, read
after the traffic settles and again after a graceful drain:

* zero lost blocks -- every admitted block has exactly one verdict
  (``scheduled + degraded + quarantined + shed == admitted``);
* zero double-scheduled blocks -- the per-request duplicate counter
  stayed 0;
* the drain completed cleanly (listener closed, thread joined).
"""

from __future__ import annotations

import asyncio
import gc
import os
import random
import signal
import tempfile
import threading
import time
from dataclasses import dataclass, field

from repro.errors import ReproError
from repro.obs.metrics import MetricsRegistry
from repro.runner.chaos import ChaosConfig
from repro.runner.fsck import fsck_paths
from repro.runner.journal import scan_lines
from repro.serve import client
from repro.serve.loadtest import LoadtestConfig, run_loadtest
from repro.serve.overload import OverloadConfig, process_rss_mb
from repro.serve.server import BackgroundServer, ServeConfig
from repro.serve.supervise import (
    DaemonSupervisor,
    SupervisorPolicy,
    spawn_serve_child,
)
from repro.serve.wal import WriteAheadLog


@dataclass(frozen=True)
class ServeChaosConfig:
    """Seeded chaos plan for the serve harness.

    Attributes:
        seed: drives the worker-fault plan, the client fault plan,
            and the workload mix.
        requests: schedule requests to send.
        jobs: per-request supervised workers (>= 2 so crashes land in
            real worker processes).
        copies: kernel repetitions per request (blocks per request).
        exit_rate / kill_rate: worker-death injection rates
            (see :class:`~repro.runner.chaos.ChaosConfig`).
        disconnect_rate: fraction of clients that hang up after the
            first streamed frame.
        storm_rate: fraction of requests carrying a storm deadline.
        storm_deadline_s: the too-small deadline storm requests carry.
        mem_limit_mb: optional worker memory ceiling (pairs with
            ``alloc_rate`` for attributed OOM chaos).
        alloc_rate: worker allocation-burst injection rate.
        drain_grace_s: server drain grace for the final SIGTERM-
            equivalent drain.
    """

    seed: int = 0
    requests: int = 6
    jobs: int = 2
    copies: int = 6
    exit_rate: float = 0.12
    kill_rate: float = 0.08
    disconnect_rate: float = 0.25
    storm_rate: float = 0.25
    storm_deadline_s: float = 0.05
    mem_limit_mb: int | None = None
    alloc_rate: float = 0.0
    drain_grace_s: float = 10.0


@dataclass
class ServeChaosReport:
    """What the serve chaos run observed and verified."""

    requests_sent: int = 0
    requests_completed: int = 0
    requests_rejected: int = 0
    requests_disconnected: int = 0
    blocks_admitted: int = 0
    blocks_scheduled: int = 0
    blocks_degraded: int = 0
    blocks_quarantined: int = 0
    blocks_shed: int = 0
    shed_by_reason: dict[str, int] = field(default_factory=dict)
    duplicate_blocks: int = 0
    lost_blocks: int = 0
    drained_ok: bool = False
    wall_s: float = 0.0

    @property
    def ok(self) -> bool:
        """Zero lost, zero double-scheduled, clean drain."""
        return (self.lost_blocks == 0 and self.duplicate_blocks == 0
                and self.drained_ok)

    def to_dict(self) -> dict:
        return {
            "requests_sent": self.requests_sent,
            "requests_completed": self.requests_completed,
            "requests_rejected": self.requests_rejected,
            "requests_disconnected": self.requests_disconnected,
            "blocks_admitted": self.blocks_admitted,
            "blocks_scheduled": self.blocks_scheduled,
            "blocks_degraded": self.blocks_degraded,
            "blocks_quarantined": self.blocks_quarantined,
            "blocks_shed": self.blocks_shed,
            "shed_by_reason": dict(sorted(self.shed_by_reason.items())),
            "duplicate_blocks": self.duplicate_blocks,
            "lost_blocks": self.lost_blocks,
            "drained_ok": self.drained_ok,
            "ok": self.ok,
            "wall_s": round(self.wall_s, 3),
        }


def _chaos_mix(config: ServeChaosConfig) -> list[tuple[dict, bool]]:
    """Seeded (message, disconnect_after_first_frame) pairs."""
    rng = random.Random(f"repro-serve-chaos:{config.seed}")
    kernels = ("daxpy", "dot_product", "livermore1")
    mix = []
    for i in range(config.requests):
        message = {
            "op": "schedule",
            "id": f"chaos-{config.seed}-{i}",
            "tenant": f"tenant-{i % 2}",
            "workload": {
                "kernel": kernels[rng.randrange(len(kernels))],
                "copies": config.copies,
            },
        }
        if rng.random() < config.storm_rate:
            message["deadline_s"] = config.storm_deadline_s
        disconnect = rng.random() < config.disconnect_rate
        mix.append((message, disconnect))
    return mix


async def _drive(address: str, mix, report: ServeChaosReport) -> dict:
    # One connection per client.  A disconnecting client hangs up
    # after the first streamed frame: the abandoned remainder must
    # show up server-side as shed, never lost.
    replies = await asyncio.gather(*(
        client.request(address, message, 120.0, hang_up=disconnect)
        for message, disconnect in mix))
    for reply in replies:
        report.requests_sent += 1
        if reply.status == "ok":
            report.requests_completed += 1
        elif reply.status in ("rejected", "error"):
            report.requests_rejected += 1
        else:
            report.requests_disconnected += 1
    # Give disconnect-abandoned requests time to finish shedding
    # server-side before auditing the books.
    return await client.settle(address)


def run_serve_chaos(config: ServeChaosConfig,
                    metrics: MetricsRegistry | None = None
                    ) -> ServeChaosReport:
    """Stand up a daemon, batter it, audit the books, drain it."""
    report = ServeChaosReport()
    t0 = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="repro-serve-chaos-") \
            as tmp:
        worker_chaos = ChaosConfig(
            seed=config.seed,
            exit_rate=config.exit_rate,
            kill_rate=config.kill_rate,
            alloc_rate=config.alloc_rate)
        serve_config = ServeConfig(
            address=f"unix:{os.path.join(tmp, 'chaos.sock')}",
            workers=2,
            max_queued=max(4, config.requests),
            jobs=config.jobs,
            drain_grace_s=config.drain_grace_s,
            task_timeout=30.0,
            mem_limit_mb=config.mem_limit_mb,
            chaos=worker_chaos)
        background = BackgroundServer(serve_config,
                                      metrics=metrics).start()
        try:
            stats = asyncio.run(_drive(background.address,
                                       _chaos_mix(config), report))
            server = stats["server"]
            report.blocks_admitted = server["blocks_admitted"]
            report.blocks_scheduled = server["blocks_scheduled"]
            report.blocks_degraded = server["blocks_degraded"]
            report.blocks_quarantined = server["blocks_quarantined"]
            report.blocks_shed = server["blocks_shed"]
            report.shed_by_reason = server["shed_by_reason"]
            report.duplicate_blocks = server["duplicate_blocks"]
            report.lost_blocks = (
                server["blocks_admitted"]
                - server["blocks_scheduled"] - server["blocks_degraded"]
                - server["blocks_quarantined"] - server["blocks_shed"])
            background.drain()
            report.drained_ok = True
        finally:
            if not report.drained_ok:
                try:
                    background.drain(timeout=10.0)
                except Exception:  # noqa: BLE001 - already failing
                    pass
    report.wall_s = time.perf_counter() - t0
    return report


# -- storm chaos: overload flood + in-daemon memory hog ---------------------


@dataclass(frozen=True)
class StormChaosConfig:
    """Seeded plan for ``repro chaos --serve --storm``.

    A deliberately tiny daemon (one worker, a two-deep queue) with an
    aggressive :class:`~repro.serve.overload.OverloadConfig` is hit
    with a storm-mix flood while an in-process memory hog inflates
    the daemon's RSS past its budget.  The verdict:

    * the daemon never crashes or OOMs -- the final drain completes
      and zero requests terminate without a typed frame;
    * block accounting stays exact through every degradation level
      (``scheduled + degraded + quarantined + shed == admitted``);
    * priority-class tenants' error budget holds (they retry through
      the rejections and their admitted requests meet deadlines);
    * the ladder engaged (max level >= 1) and descended back to L0
      once the storm passed.

    Attributes:
        seed: drives the storm mix.
        requests: flood size.
        concurrency: client connections flooding in parallel.
        priority_share: fraction of flood requests from
            priority-class tenants.
        copies_max: request size knob (blocks per request, 1..max).
        hog_mb: size of the in-process allocation burst.
        hog_hold_s: how long the hog is held before release.
        cooldown_s: how long to wait for the ladder to return to L0.
        drain_grace_s: server drain grace for the final drain.
    """

    seed: int = 0
    requests: int = 48
    concurrency: int = 8
    priority_share: float = 0.25
    copies_max: int = 2
    hog_mb: int = 48
    hog_hold_s: float = 1.0
    cooldown_s: float = 30.0
    drain_grace_s: float = 10.0


@dataclass
class StormChaosReport:
    """What the storm chaos run observed and verified."""

    requests_sent: int = 0
    requests_completed: int = 0
    requests_rejected: int = 0
    requests_errored: int = 0
    storm: dict = field(default_factory=dict)
    blocks_admitted: int = 0
    blocks_scheduled: int = 0
    blocks_degraded: int = 0
    blocks_quarantined: int = 0
    blocks_shed: int = 0
    lost_blocks: int = 0
    priority_budget_ok: float = 1.0
    besteffort_overload_rejections: int = 0
    max_level: int = 0
    recovered: bool = False
    transitions_total: int = 0
    descents_total: int = 0
    hog_peak_rss_mb: float | None = None
    drained_ok: bool = False
    wall_s: float = 0.0

    @property
    def ok(self) -> bool:
        """Survived, accounted, priority budget held, recovered."""
        return (self.drained_ok
                and self.requests_errored == 0
                and self.lost_blocks == 0
                and self.max_level >= 1
                and self.recovered
                and self.priority_budget_ok >= 0.9)

    def to_dict(self) -> dict:
        return {
            "requests_sent": self.requests_sent,
            "requests_completed": self.requests_completed,
            "requests_rejected": self.requests_rejected,
            "requests_errored": self.requests_errored,
            "storm": self.storm,
            "blocks_admitted": self.blocks_admitted,
            "blocks_scheduled": self.blocks_scheduled,
            "blocks_degraded": self.blocks_degraded,
            "blocks_quarantined": self.blocks_quarantined,
            "blocks_shed": self.blocks_shed,
            "lost_blocks": self.lost_blocks,
            "priority_budget_ok": self.priority_budget_ok,
            "besteffort_overload_rejections":
                self.besteffort_overload_rejections,
            "max_level": self.max_level,
            "recovered": self.recovered,
            "transitions_total": self.transitions_total,
            "descents_total": self.descents_total,
            "hog_peak_rss_mb": self.hog_peak_rss_mb,
            "drained_ok": self.drained_ok,
            "ok": self.ok,
            "wall_s": round(self.wall_s, 3),
        }


async def _storm_scenario(address: str, lt_config: LoadtestConfig,
                          config: StormChaosConfig,
                          report: StormChaosReport) -> tuple:
    """Flood + memory hog concurrently, then settle the books.

    Returns the storm loadtest's report and the settled stats frame.
    """

    async def hog() -> None:
        # The hog shares the daemon's process (BackgroundServer runs
        # in-process), so this inflates the RSS the overload monitor
        # samples.  Built by one C-level repeat: every page is
        # written (so resident), and the GIL is not held across a
        # Python loop that would starve the daemon's event loop for
        # the whole flood.
        ballast = bytearray(b"\x01") * (config.hog_mb << 20)
        report.hog_peak_rss_mb = process_rss_mb()
        await asyncio.sleep(config.hog_hold_s)
        del ballast
        gc.collect()

    lt_report, _ = await asyncio.gather(
        asyncio.to_thread(run_loadtest, lt_config), hog())
    return lt_report, await client.settle(address)


def run_storm_chaos(config: StormChaosConfig,
                    metrics: MetricsRegistry | None = None
                    ) -> StormChaosReport:
    """Stand up a tiny daemon, storm it, audit ladder and books."""
    report = StormChaosReport()
    t0 = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="repro-storm-chaos-") \
            as tmp:
        overload = OverloadConfig(
            # Aggressive: tick fast, dwell briefly, so a short flood
            # walks the whole ladder and descends within cooldown.
            interval_s=0.02,
            dwell_s=(0.0, 0.05, 0.05, 0.08, 0.1),
            dwell_up_s=0.02,
            # p99 and RSS stay out of the ladder here: a one-worker
            # daemon under flood has honest multi-second latencies,
            # and the post-storm working set sits wherever the
            # allocator left it -- neither decays on the cooldown
            # timescale the scenario asserts on.  Occupancy drives
            # the ladder; the hog asserts survival, not transitions
            # (RSS-driven transitions are unit-tested with fake
            # signals).
            p99_budget_s=60.0)
        serve_config = ServeConfig(
            address=f"unix:{os.path.join(tmp, 'storm.sock')}",
            workers=1,
            max_queued=2,
            jobs=1,
            drain_grace_s=config.drain_grace_s,
            task_timeout=30.0,
            overload=overload)
        background = BackgroundServer(serve_config,
                                      metrics=metrics).start()
        lt_config = LoadtestConfig(
            address=background.address,
            seed=config.seed,
            requests=config.requests,
            concurrency=config.concurrency,
            copies_max=config.copies_max,
            deadline_s=30.0,
            priority_share=config.priority_share,
            storm=True,
            cooldown_s=config.cooldown_s)
        try:
            lt_report, stats = asyncio.run(_storm_scenario(
                background.address, lt_config, config, report))
            server = stats["server"]
            report.requests_sent = lt_report.sent
            report.requests_completed = lt_report.completed
            report.requests_rejected = lt_report.rejected
            report.requests_errored = lt_report.errored
            report.storm = lt_report.storm or {}
            report.blocks_admitted = server["blocks_admitted"]
            report.blocks_scheduled = server["blocks_scheduled"]
            report.blocks_degraded = server["blocks_degraded"]
            report.blocks_quarantined = server["blocks_quarantined"]
            report.blocks_shed = server["blocks_shed"]
            report.lost_blocks = (
                server["blocks_admitted"]
                - server["blocks_scheduled"]
                - server["blocks_degraded"]
                - server["blocks_quarantined"]
                - server["blocks_shed"])
            storm = report.storm
            report.max_level = int(storm.get("max_level", 0))
            report.recovered = bool(storm.get("recovered"))
            report.transitions_total = int(
                storm.get("transitions_total", 0))
            report.descents_total = int(
                storm.get("descents_total", 0))
            by_class = storm.get("by_class", {})
            report.priority_budget_ok = float(
                by_class.get("priority", {}).get("budget_ok", 1.0))
            report.besteffort_overload_rejections = int(
                by_class.get("best-effort", {})
                .get("rejected_overload", 0))
            background.drain()
            report.drained_ok = True
        finally:
            if not report.drained_ok:
                try:
                    background.drain(timeout=10.0)
                except Exception:  # noqa: BLE001 - already failing
                    pass
    report.wall_s = time.perf_counter() - t0
    return report


def render_storm_chaos_report(report: StormChaosReport) -> str:
    """Human-readable storm chaos verdict (CLI output)."""
    doc = report.to_dict()
    lines = [
        f"! storm chaos: {doc['requests_sent']} requests "
        f"({doc['requests_completed']} completed, "
        f"{doc['requests_rejected']} rejected, "
        f"{doc['requests_errored']} errored)",
        f"! ladder: max L{doc['max_level']}, "
        f"{doc['transitions_total']} transitions "
        f"({doc['descents_total']} descents), "
        f"{'recovered to L0' if doc['recovered'] else 'DID NOT RECOVER'}",
        f"! priority: error budget "
        f"{doc['priority_budget_ok']:.1%}; best-effort: "
        f"{doc['besteffort_overload_rejections']} overload "
        f"rejections",
        f"! blocks: {doc['blocks_admitted']} admitted = "
        f"{doc['blocks_scheduled']} scheduled + "
        f"{doc['blocks_degraded']} degraded + "
        f"{doc['blocks_quarantined']} quarantined + "
        f"{doc['blocks_shed']} shed "
        f"(lost {doc['lost_blocks']})",
        f"! drain: {'clean' if doc['drained_ok'] else 'FAILED'}; "
        f"hog peak RSS "
        f"{doc['hog_peak_rss_mb'] or 0:.0f} MB",
        f"! verdict: {'OK' if doc['ok'] else 'FAILED'} "
        f"in {doc['wall_s']}s",
    ]
    return "\n".join(lines)


# -- kill-daemon chaos: SIGKILL the daemon itself, audit the WAL ------------


@dataclass(frozen=True)
class KillDaemonConfig:
    """Seeded plan for ``repro chaos --serve --kill-daemon``.

    A supervised daemon (real child processes, real SIGKILL) is
    battered while keyed clients retry through the restarts.  The
    verdict is read from the WAL, not from any single generation's
    in-memory stats.

    Attributes:
        seed: drives kill timing jitter and the workload mix.
        requests: keyed schedule requests the clients must land.
        copies: kernel repetitions per request (blocks per request).
        kills: SIGKILLs delivered to daemon generations mid-load.
        kill_interval_s: nominal spacing between kills (jittered).
        wall_timeout_s: hard cap on the whole run.
    """

    seed: int = 0
    requests: int = 6
    copies: int = 4
    kills: int = 2
    kill_interval_s: float = 0.5
    wall_timeout_s: float = 120.0


@dataclass
class KillDaemonReport:
    """What the kill-daemon run observed and verified.

    ``ok`` is the acceptance criterion: zero acknowledged requests
    lost, zero double-scheduled blocks across restarts, supervisor
    exits 0 after a clean drain, and fsck finds the surviving WAL and
    snapshots intact.
    """

    requests_sent: int = 0
    requests_acknowledged: int = 0
    requests_completed: int = 0
    requests_deduped: int = 0
    client_retries: int = 0
    kills_delivered: int = 0
    last_killed_pid: int | None = None
    generations: int = 0
    lost_acknowledged: int = 0
    duplicate_blocks: int = 0
    supervisor_exit: int | None = None
    fsck_clean: bool = False
    wall_s: float = 0.0

    @property
    def ok(self) -> bool:
        return (self.lost_acknowledged == 0
                and self.duplicate_blocks == 0
                and self.supervisor_exit == 0
                and self.fsck_clean
                and self.requests_completed == self.requests_sent)

    def to_dict(self) -> dict:
        return {
            "requests_sent": self.requests_sent,
            "requests_acknowledged": self.requests_acknowledged,
            "requests_completed": self.requests_completed,
            "requests_deduped": self.requests_deduped,
            "client_retries": self.client_retries,
            "kills_delivered": self.kills_delivered,
            "generations": self.generations,
            "lost_acknowledged": self.lost_acknowledged,
            "duplicate_blocks": self.duplicate_blocks,
            "supervisor_exit": self.supervisor_exit,
            "fsck_clean": self.fsck_clean,
            "ok": self.ok,
            "wall_s": round(self.wall_s, 3),
        }


async def _keyed_client(address: str, message: dict, deadline: float,
                        report: KillDaemonReport, alive) -> None:
    """Drive one keyed request to completion through restarts.

    The retry loop is the client half of the durability contract:
    resend the *same idempotency key* until a terminal frame lands.
    Every reconnect after the first counts as a retry.  ``alive``
    reports whether the supervisor is still restarting daemons --
    once it gives up (crash loop) there is nothing to wait for.
    """
    attempts = 0
    acknowledged = False
    while time.monotonic() < deadline and alive():
        attempts += 1
        try:
            reply = await client.request(
                address, message, max(0.1, deadline - time.monotonic()))
        except ReproError:
            await asyncio.sleep(0.1)  # daemon between generations
            continue
        acknowledged = acknowledged or reply.accepted
        if reply.status in ("ok", "error"):
            if reply.status == "ok":
                report.requests_completed += 1
                if reply.deduped:
                    report.requests_deduped += 1
            if acknowledged:
                report.requests_acknowledged += 1
            report.client_retries += attempts - 1
            return
        # The daemon died mid-stream, or rejected the key: duplicate-
        # in-flight while recovery re-runs it, or draining/queue-full.
        # Either way the key is retried until its result exists.
        await asyncio.sleep(0.15)


def _connectable(address: str) -> bool:
    """True when a daemon generation is accepting at ``address``."""
    try:
        client.Client(address, timeout_s=0.2).close()
        return True
    except ReproError:
        return False


def _wal_inflight(wal_path: str) -> bool:
    """True when the WAL shows an acknowledged-but-unfinished key."""
    try:
        with open(wal_path, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    except OSError:
        return False
    if len(lines) < 2:
        return False
    records, _ = scan_lines(lines[1:], first_lineno=2)
    accepted: set = set()
    finished: set = set()
    for _, record in records:
        if record.get("type") == "accepted":
            accepted.add(record.get("key"))
        elif record.get("type") == "finished":
            finished.add(record.get("key"))
    return bool(accepted - finished)


async def _seeded_killer(wal_path: str, pid_path: str,
                         config: KillDaemonConfig,
                         report: KillDaemonReport,
                         clients_done: asyncio.Event) -> None:
    """SIGKILL the daemon while acknowledged work is in flight.

    Killing an idle daemon proves nothing, so each kill waits for the
    WAL to show an accepted-but-unfinished key -- the exact state the
    durability contract is about -- then strikes after a small seeded
    jitter.
    """
    rng = random.Random(f"repro-kill-daemon:{config.seed}")
    while report.kills_delivered < config.kills \
            and not clients_done.is_set():
        if not _wal_inflight(wal_path):
            await asyncio.sleep(0.01)
            continue
        await asyncio.sleep(0.03 * rng.random())
        try:
            with open(pid_path, "r", encoding="utf-8") as handle:
                pid = int(handle.read().strip())
            os.kill(pid, signal.SIGKILL)
        except (OSError, ValueError):
            await asyncio.sleep(0.01)  # between generations
            continue
        report.kills_delivered += 1
        report.last_killed_pid = pid
        # Give the supervisor time to restart and the next generation
        # time to recover before striking again.
        try:
            await asyncio.wait_for(
                clients_done.wait(),
                timeout=config.kill_interval_s * (0.5 + rng.random()))
            return
        except asyncio.TimeoutError:
            pass


async def _drive_kill_daemon(address: str, wal_path: str,
                             pid_path: str,
                             config: KillDaemonConfig,
                             report: KillDaemonReport, alive) -> None:
    deadline = time.monotonic() + config.wall_timeout_s
    clients_done = asyncio.Event()
    killer = asyncio.ensure_future(
        _seeded_killer(wal_path, pid_path, config, report,
                       clients_done))
    rng = random.Random(f"repro-serve-chaos:{config.seed}")
    kernels = ("daxpy", "dot_product", "livermore1")
    messages = []
    for i in range(config.requests):
        messages.append({
            "op": "schedule",
            "id": f"kill-{config.seed}-{i}",
            "key": f"kill-key-{config.seed}-{i}",
            "tenant": f"tenant-{i % 2}",
            "workload": {
                "kernel": kernels[rng.randrange(len(kernels))],
                "copies": config.copies,
            },
        })
    report.requests_sent = len(messages)
    await asyncio.gather(*(
        _keyed_client(address, message, deadline, report, alive)
        for message in messages))
    clients_done.set()
    await killer


def _audit_wal(wal_path: str, report: KillDaemonReport) -> None:
    """The cross-generation verdict: read the surviving WAL.

    * every key with an ``accepted`` record must reach a ``finished``
      record (zero acknowledged requests lost);
    * no (key, block index) may carry two ``block-done`` records
      (zero double-scheduled blocks across restarts).
    """
    wal, recovery = WriteAheadLog.open(wal_path)
    wal.close()
    report.lost_acknowledged = len(recovery.incomplete)
    with open(wal_path, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    records, _ = scan_lines(lines[1:], first_lineno=2)
    seen: set[tuple[str, int]] = set()
    duplicates = 0
    for _, record in records:
        if record.get("type") == "block-done":
            pair = (str(record.get("key")), int(record["index"]))
            if pair in seen:
                duplicates += 1
            seen.add(pair)
    report.duplicate_blocks = duplicates


def run_kill_daemon_chaos(config: KillDaemonConfig,
                          argv_extra: list[str] | None = None
                          ) -> KillDaemonReport:
    """Supervised daemon + seeded SIGKILLs + retrying keyed clients.

    Stands up a real :class:`DaemonSupervisor` (child daemons are
    separate processes), batters it, SIGTERMs the supervisor for a
    clean final drain, then audits the WAL and runs fsck over the
    surviving state directory.
    """
    report = KillDaemonReport()
    t0 = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="repro-kill-daemon-") \
            as tmp:
        wal_dir = os.path.join(tmp, "state")
        address = f"unix:{os.path.join(tmp, 'kill.sock')}"
        pid_path = os.path.join(wal_dir, "daemon.pid")
        os.makedirs(wal_dir, exist_ok=True)
        child_argv = ["--address", address,
                      "--wal-dir", wal_dir,
                      "--workers", "2",
                      "--drain-grace", "10",
                      *(argv_extra or [])]
        supervisor = DaemonSupervisor(
            spawn=lambda: spawn_serve_child(child_argv),
            policy=SupervisorPolicy(
                max_restarts=config.kills + 3,
                window_s=config.wall_timeout_s,
                backoff_base_s=0.05, backoff_max_s=0.5),
            pid_path=pid_path,
            log=lambda line: None)
        exit_box: dict = {}

        def _run_supervisor() -> None:
            try:
                exit_box["code"] = supervisor.run()
            except Exception as exc:  # noqa: BLE001 - audited below
                exit_box["error"] = exc

        thread = threading.Thread(target=_run_supervisor,
                                  name="repro-kill-daemon-supervisor")
        thread.start()
        wal_path = os.path.join(wal_dir, "serve.wal")
        try:
            asyncio.run(_drive_kill_daemon(
                address, wal_path, pid_path, config, report,
                alive=thread.is_alive))
        finally:
            # Let the supervisor bring up a post-kill generation
            # before asking for the final drain, so the stop lands on
            # a live, connectable daemon and the run ends with a
            # clean exit 0 instead of racing a crash-restart (a just-
            # SIGKILLed child can still poll() as alive for a tick,
            # hence the pid comparison).
            settle_deadline = time.monotonic() + 10.0
            while time.monotonic() < settle_deadline \
                    and thread.is_alive():
                child = supervisor._child
                if supervisor.child_alive() and child is not None \
                        and child.pid != report.last_killed_pid \
                        and _connectable(address):
                    break
                time.sleep(0.05)
            supervisor.request_stop()
            thread.join(config.wall_timeout_s)
        report.generations = supervisor.generation
        if "error" in exit_box:
            report.supervisor_exit = 1
        else:
            report.supervisor_exit = exit_box.get("code")
        if os.path.exists(wal_path):
            _audit_wal(wal_path, report)
        else:
            report.lost_acknowledged = report.requests_acknowledged
        findings = fsck_paths([wal_dir])
        report.fsck_clean = all(
            f.status in ("clean", "repairable") for f in findings)
    report.wall_s = time.perf_counter() - t0
    return report


def render_kill_daemon_report(report: KillDaemonReport) -> str:
    """Human-readable kill-daemon verdict (CLI output)."""
    doc = report.to_dict()
    lines = [
        f"! kill-daemon chaos: {doc['requests_sent']} keyed requests, "
        f"{doc['kills_delivered']} SIGKILLs across "
        f"{doc['generations']} daemon generations",
        f"! clients: {doc['requests_completed']} completed "
        f"({doc['requests_deduped']} deduped), "
        f"{doc['client_retries']} retries",
        f"! WAL audit: {doc['lost_acknowledged']} acknowledged "
        f"requests lost, {doc['duplicate_blocks']} double-scheduled "
        f"blocks",
        f"! supervisor exit: {doc['supervisor_exit']}, fsck clean: "
        f"{'yes' if doc['fsck_clean'] else 'NO'}",
        f"! verdict: {'OK' if doc['ok'] else 'FAILED'} "
        f"in {doc['wall_s']}s",
    ]
    return "\n".join(lines)


def render_serve_chaos_report(report: ServeChaosReport) -> str:
    """Human-readable report lines (CLI output)."""
    doc = report.to_dict()
    lines = [
        f"! serve chaos: {doc['requests_sent']} requests "
        f"({doc['requests_completed']} completed, "
        f"{doc['requests_disconnected']} disconnected, "
        f"{doc['requests_rejected']} rejected)",
        f"! blocks: {doc['blocks_admitted']} admitted = "
        f"{doc['blocks_scheduled']} scheduled + "
        f"{doc['blocks_degraded']} degraded + "
        f"{doc['blocks_quarantined']} quarantined + "
        f"{doc['blocks_shed']} shed",
    ]
    if doc["shed_by_reason"]:
        reasons = ", ".join(f"{k}={v}" for k, v in
                            doc["shed_by_reason"].items())
        lines.append(f"! shed reasons: {reasons}")
    lines.append(
        f"! lost blocks: {doc['lost_blocks']}, "
        f"double-scheduled: {doc['duplicate_blocks']}, "
        f"clean drain: {'yes' if doc['drained_ok'] else 'NO'}")
    lines.append(f"! verdict: {'OK' if doc['ok'] else 'FAILED'} "
                 f"in {doc['wall_s']}s")
    return "\n".join(lines)
