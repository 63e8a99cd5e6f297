"""``repro loadtest``: a seeded load generator for the serve daemon.

Generates a deterministic request mix (seeded kernels, sizes,
tenants, and deadlines), drives it against a running daemon with
bounded client concurrency, and reports the SLO numbers that matter
for a scheduling service: latency percentiles, throughput, shed and
rejection rates, and the error budget -- the fraction of *admitted,
deadlined* requests that met their deadline.

The mix is the deterministic part: :func:`generate_mix` depends only
on the config (same seed, same requests, fingerprinted in the
report), so two loadtest runs against differently-tuned servers are
comparing identical traffic.  Latencies are of course host-dependent;
they are recorded through the obs metrics registry
(``repro_requests_total``, ``repro_request_seconds``, ...) so
``loadtest`` output and server-side dashboards speak the same
catalog.

What "good" looks like under overload: rejections climb (the daemon
sheds load *explicitly*, by typed reason) while admitted requests
keep meeting their deadlines -- admission control converts overload
into fast failure for some instead of slow failure for all.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import random
import time
from collections import deque
from dataclasses import dataclass, field

from repro.errors import ReproError
from repro.obs.metrics import MetricsRegistry, record_request
from repro.serve import client
from repro.serve.overload import is_priority_tenant

#: kernels the generator draws from (all in workloads.kernels)
MIX_KERNELS = ("daxpy", "dot_product", "livermore1", "figure1")

#: resend attempts a storm-phase priority client makes before giving
#: up (each waits out the rejection's honest ``retry_after_s`` hint)
STORM_PRIORITY_RETRIES = 8

#: longest a storm retry waits regardless of the hint, seconds
STORM_RETRY_CAP_S = 0.5


@dataclass(frozen=True)
class LoadtestConfig:
    """One loadtest's traffic description.

    Attributes:
        address: daemon address to connect to.
        seed: mix seed; same seed, same requests.
        requests: total schedule requests to send.
        concurrency: client connections sending in parallel.
        tenants: distinct tenant ids to spread traffic over.
        copies_max: request size knob -- each request schedules a
            kernel repeated 1..copies_max times (one block per copy).
        deadline_s: the deadline carried by deadlined requests.
        deadline_fraction: fraction of requests carrying a deadline.
        machine: machine model every request asks for.
        timeout_s: client-side cap on one request's full stream.
        idempotency_retry: fraction of requests resent -- after the
            main mix finishes -- with their original idempotency key.
            0 disables the retry phase (and keeps keys off the mix,
            so plain-mix fingerprints are unchanged).  When enabled,
            every resend must come back ``deduped`` from the WAL
            result store; a re-executed duplicate counts against
            ``duplicate_results``, which a durable daemon keeps at
            exactly 0.
        storm: replace the polite mix with an overload storm --
            a flood of best-effort traffic with a priority-class
            minority -- and report SLOs split by tenant priority
            class plus the daemon's degradation-ladder trajectory
            (max level reached, transitions, recovery to L0).
            Priority clients honour ``retry_after_s`` and retry up
            to :data:`STORM_PRIORITY_RETRIES` times; best-effort
            clients take the typed rejection and leave.
        priority_share: fraction of storm requests from priority
            tenants.
        cooldown_s: how long after the storm to wait for the ladder
            to descend back to L0 before reporting non-recovery.
    """

    address: str
    seed: int = 0
    requests: int = 40
    concurrency: int = 8
    tenants: int = 2
    copies_max: int = 4
    deadline_s: float = 10.0
    deadline_fraction: float = 0.5
    machine: str = "generic"
    timeout_s: float = 60.0
    idempotency_retry: float = 0.0
    storm: bool = False
    priority_share: float = 0.25
    cooldown_s: float = 30.0


def generate_mix(config: LoadtestConfig) -> list[dict]:
    """The deterministic request mix for a config (wire messages)."""
    rng = random.Random(f"repro-loadtest:{config.seed}")
    mix = []
    for i in range(config.requests):
        message = {
            "op": "schedule",
            "id": f"lt-{config.seed}-{i}",
            "trace": f"lt-trace-{config.seed}-{i}",
            "tenant": f"tenant-{i % max(1, config.tenants)}",
            "machine": config.machine,
            "workload": {
                "kernel": MIX_KERNELS[rng.randrange(len(MIX_KERNELS))],
                "copies": rng.randint(1, max(1, config.copies_max)),
            },
        }
        if rng.random() < config.deadline_fraction:
            message["deadline_s"] = config.deadline_s
        if config.idempotency_retry > 0:
            message["key"] = f"lt-key-{config.seed}-{i}"
        mix.append(message)
    return mix


def generate_storm_mix(config: LoadtestConfig) -> list[dict]:
    """The deterministic storm mix: flood + priority minority.

    Tenant names carry the class: ``priority-N`` tenants are in the
    priority class by the
    :data:`~repro.serve.overload.PRIORITY_TENANT_PREFIX` naming
    convention, ``besteffort-N`` tenants are not.  Every request
    carries a deadline (a storm client that waits forever is not
    measuring an SLO).
    """
    rng = random.Random(f"repro-loadtest-storm:{config.seed}")
    stride = max(2, int(round(1.0 / max(0.01, min(
        config.priority_share, 0.5)))))
    mix = []
    for i in range(config.requests):
        if i % stride == 0:
            tenant = f"priority-{(i // stride) % 2}"
        else:
            tenant = f"besteffort-{i % 3}"
        mix.append({
            "op": "schedule",
            "id": f"st-{config.seed}-{i}",
            "trace": f"st-trace-{config.seed}-{i}",
            "tenant": tenant,
            "machine": config.machine,
            "deadline_s": config.deadline_s,
            "workload": {
                "kernel": MIX_KERNELS[rng.randrange(len(MIX_KERNELS))],
                "copies": rng.randint(1, max(1, config.copies_max)),
            },
        })
    return mix


def generate_retry_mix(config: LoadtestConfig,
                       mix: list[dict]) -> list[dict]:
    """The seeded duplicate-key resend subset for the retry phase.

    Each selected message is resent verbatim except for a fresh
    request id (frames route by id; dedup is by ``key``).
    """
    rng = random.Random(f"repro-loadtest-retry:{config.seed}")
    retries = []
    for message in mix:
        if rng.random() < config.idempotency_retry:
            duplicate = dict(message)
            duplicate["id"] = f"{message['id']}-retry"
            retries.append(duplicate)
    return retries


def mix_fingerprint(mix: list[dict]) -> str:
    """Stable digest of a mix, printed so runs are comparable."""
    payload = json.dumps(mix, sort_keys=True,
                         separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()[:16]


@dataclass
class LoadtestReport:
    """What one loadtest observed.

    ``completed + rejected + errored == sent`` always holds -- the
    daemon's never-silent rule means every request has a terminal
    frame (a client-side timeout counts as errored).
    """

    sent: int = 0
    completed: int = 0
    rejected: int = 0
    errored: int = 0
    rejections_by_reason: dict[str, int] = field(default_factory=dict)
    blocks_done: int = 0
    blocks_shed: int = 0
    shed_by_reason: dict[str, int] = field(default_factory=dict)
    deadlined: int = 0
    deadlines_met: int = 0
    latencies_s: list[float] = field(default_factory=list)
    wall_s: float = 0.0
    fingerprint: str = ""
    seed: int = 0
    retries_sent: int = 0
    retries_deduped: int = 0
    retries_rejected: int = 0
    duplicate_results: int = 0
    traced_frames: int = 0
    trace_mismatches: int = 0
    storm: dict | None = None

    def percentile(self, q: float) -> float:
        """Nearest-rank latency percentile over completed requests."""
        if not self.latencies_s:
            return 0.0
        ordered = sorted(self.latencies_s)
        rank = min(len(ordered) - 1,
                   max(0, int(round(q * (len(ordered) - 1)))))
        return ordered[rank]

    @property
    def throughput_rps(self) -> float:
        return self.completed / self.wall_s if self.wall_s else 0.0

    @property
    def shed_rate(self) -> float:
        total = self.blocks_done + self.blocks_shed
        return self.blocks_shed / total if total else 0.0

    @property
    def error_budget_ok(self) -> float:
        """Fraction of admitted, deadlined requests that met their
        deadline (1.0 when none carried a deadline)."""
        return (self.deadlines_met / self.deadlined
                if self.deadlined else 1.0)

    def to_dict(self) -> dict:
        doc = {
            "seed": self.seed,
            "fingerprint": self.fingerprint,
            "sent": self.sent,
            "completed": self.completed,
            "rejected": self.rejected,
            "errored": self.errored,
            "rejections_by_reason": dict(sorted(
                self.rejections_by_reason.items())),
            "blocks_done": self.blocks_done,
            "blocks_shed": self.blocks_shed,
            "shed_by_reason": dict(sorted(self.shed_by_reason.items())),
            "shed_rate": round(self.shed_rate, 4),
            "deadlined": self.deadlined,
            "deadlines_met": self.deadlines_met,
            "error_budget_ok": round(self.error_budget_ok, 4),
            "retries_sent": self.retries_sent,
            "retries_deduped": self.retries_deduped,
            "retries_rejected": self.retries_rejected,
            "duplicate_results": self.duplicate_results,
            "traced_frames": self.traced_frames,
            "trace_mismatches": self.trace_mismatches,
            "p50_s": round(self.percentile(0.50), 6),
            "p99_s": round(self.percentile(0.99), 6),
            "throughput_rps": round(self.throughput_rps, 3),
            "wall_s": round(self.wall_s, 3),
        }
        if self.storm is not None:
            doc["storm"] = self.storm
        return doc


def _storm_class_stats() -> dict:
    return {"sent": 0, "completed": 0, "rejected_overload": 0,
            "rejected_other": 0, "errored": 0, "retries": 0,
            "deadlined": 0, "deadlines_met": 0, "latencies": []}


def _tally(report: LoadtestReport, message: dict,
           reply: client.Reply) -> None:
    """Count one request under its final outcome."""
    report.sent += 1
    report.blocks_done += reply.blocks
    for reason, count in reply.shed.items():
        report.blocks_shed += count
        report.shed_by_reason[reason] = \
            report.shed_by_reason.get(reason, 0) + count
    if reply.status == "ok":
        report.completed += 1
        report.latencies_s.append(reply.latency_s)
        if "deadline_s" in message:
            report.deadlined += 1
            if reply.deadline_met:
                report.deadlines_met += 1
    elif reply.status == "rejected":
        report.rejected += 1
        report.rejections_by_reason[reply.reason] = \
            report.rejections_by_reason.get(reply.reason, 0) + 1
    else:
        report.errored += 1


async def _pool(config: LoadtestConfig, messages: list[dict],
                drive) -> None:
    """``config.concurrency`` connections work through ``messages``.

    ``drive(reader, writer, message)`` runs one message to its end.
    """
    queue = deque(messages)

    async def worker() -> None:
        reader, writer = await client.connect(config.address)
        try:
            while queue:
                await drive(reader, writer, queue.popleft())
        finally:
            await client.close(writer)

    await asyncio.gather(*(worker() for _ in range(config.concurrency)))


async def _run_storm(config: LoadtestConfig, mix: list[dict],
                     report: LoadtestReport,
                     metrics: MetricsRegistry | None) -> None:
    """The storm phase: flood, sample the ladder, wait for recovery.

    Priority-class clients honour a rejection's ``retry_after_s``
    hint (capped at :data:`STORM_RETRY_CAP_S`) and resend up to
    :data:`STORM_PRIORITY_RETRIES` times under a fresh request id;
    best-effort clients take the typed rejection and leave.  A
    request counts once, under its final outcome.
    """
    classes = {"priority": _storm_class_stats(),
               "best-effort": _storm_class_stats()}
    trajectory = {"levels_seen": set(), "max_level": 0, "samples": 0}
    stop = asyncio.Event()

    async def drive(reader, writer, message: dict) -> None:
        tenant = message.get("tenant", "")
        cls = ("priority" if is_priority_tenant(tenant, ())
               else "best-effort")
        reply = await client.exchange(reader, writer, message,
                                      config.timeout_s)
        attempts = 0
        while (reply.status == "rejected" and cls == "priority"
               and attempts < STORM_PRIORITY_RETRIES):
            attempts += 1
            hint = reply.retry_after_s
            if not isinstance(hint, (int, float)) or hint <= 0:
                hint = 0.05
            await asyncio.sleep(min(STORM_RETRY_CAP_S, hint))
            reply = await client.exchange(
                reader, writer,
                dict(message, id=f"{message['id']}-r{attempts}",
                     trace=f"{message.get('trace', '')}-r{attempts}"),
                config.timeout_s)
        _tally(report, message, reply)
        stats = classes[cls]
        stats["sent"] += 1
        stats["retries"] += attempts
        if reply.status == "ok":
            stats["completed"] += 1
            stats["latencies"].append(reply.latency_s)
            if "deadline_s" in message:
                stats["deadlined"] += 1
                if reply.deadline_met:
                    stats["deadlines_met"] += 1
        elif reply.status == "rejected":
            stats["rejected_overload" if reply.reason == "overload"
                  else "rejected_other"] += 1
        else:
            stats["errored"] += 1
        if metrics is not None:
            record_request(metrics, tenant, reply.status,
                           reply.latency_s)

    async def sample() -> dict | None:
        """One ``stats`` poll folded into the trajectory (None when
        the poll failed)."""
        try:
            frame = await client.op(config.address, "stats",
                                    timeout_s=5.0)
        except ReproError:
            return None
        overload = frame.get("overload") or {}
        level = int(overload.get("level", 0))
        trajectory["levels_seen"].add(level)
        trajectory["max_level"] = max(
            trajectory["max_level"], level,
            int(overload.get("max_level", level)))
        trajectory["samples"] += 1
        return overload

    async def sampler() -> None:
        while not stop.is_set():
            await sample()
            try:
                await asyncio.wait_for(stop.wait(), timeout=0.2)
            except asyncio.TimeoutError:
                pass

    sampler_task = asyncio.ensure_future(sampler())
    try:
        await _pool(config, mix, drive)
    finally:
        stop.set()
        await sampler_task

    # Cooldown: the acceptance criterion is not "the daemon survived"
    # but "the ladder came back down" -- poll until L0 or give up.
    # A flood shorter than the daemon's monitor interval ends before
    # the latched queue-depth signal gets its first tick, so an L0
    # read in the first couple of seconds may be *pre-ascent*, not
    # recovery; hold the verdict through a short engagement grace
    # unless the ladder has already been seen moving.
    recovered = False
    final: dict = {}
    start = time.perf_counter()
    deadline = start + max(0.0, config.cooldown_s)
    grace = start + min(2.0, max(0.0, config.cooldown_s))
    while True:
        overload = await sample()
        if overload is not None:
            final = overload
            if int(final.get("level", 0)) == 0 \
                    and (trajectory["max_level"] > 0
                         or time.perf_counter() >= grace):
                recovered = True
                break
        if time.perf_counter() >= deadline:
            break
        await asyncio.sleep(0.25)

    by_class = {}
    for cls, stats in classes.items():
        latencies = sorted(stats.pop("latencies"))
        p99 = 0.0
        if latencies:
            rank = min(len(latencies) - 1,
                       max(0, round(0.99 * (len(latencies) - 1))))
            p99 = latencies[rank]
        stats["p99_s"] = round(p99, 6)
        stats["budget_ok"] = round(
            stats["deadlines_met"] / stats["deadlined"], 4) \
            if stats["deadlined"] else 1.0
        by_class[cls] = stats
    report.storm = {
        "by_class": by_class,
        "max_level": trajectory["max_level"],
        "levels_seen": sorted(trajectory["levels_seen"]),
        "samples": trajectory["samples"],
        "recovered": recovered,
        "final_level": int(final.get("level", -1)) if final else -1,
        "transitions_total": int(final.get("transitions_total", 0)),
        "ascents_total": int(final.get("ascents_total", 0)),
        "descents_total": int(final.get("descents_total", 0)),
    }


async def _run(config: LoadtestConfig, mix: list[dict],
               report: LoadtestReport,
               metrics: MetricsRegistry | None) -> None:
    """The plain mix, then the idempotency-retry phase if enabled."""

    async def drive(reader, writer, message: dict) -> None:
        reply = await client.exchange(reader, writer, message,
                                      config.timeout_s)
        # End-to-end id propagation: every frame of a traced request
        # must echo the client-minted id verbatim.
        report.traced_frames += reply.traced
        report.trace_mismatches += reply.mismatched
        _tally(report, message, reply)
        if metrics is not None:
            status = reply.status
            if status == "rejected":
                status = f"rejected:{reply.reason}"
            record_request(metrics, message.get("tenant", "default"),
                           status, reply.latency_s)

    async def resend(reader, writer, message: dict) -> None:
        # The main mix has fully settled, so every resent key has a
        # terminal WAL record and the only correct ``done`` answer
        # carries ``deduped: true`` -- a replay from the result
        # store.  A ``done`` *without* it means the daemon executed
        # the work a second time: a double-schedule.
        reply = await client.exchange(reader, writer, message,
                                      config.timeout_s)
        report.retries_sent += 1
        if reply.deduped:
            report.retries_deduped += 1
        elif reply.status == "ok":
            report.duplicate_results += 1
        else:
            report.retries_rejected += 1

    await _pool(config, mix, drive)
    if config.idempotency_retry > 0:
        await _pool(config, generate_retry_mix(config, mix), resend)


def run_loadtest(config: LoadtestConfig,
                 metrics: MetricsRegistry | None = None
                 ) -> LoadtestReport:
    """Generate the mix, drive it, and return the report.

    Raises:
        ReproError: when the daemon is unreachable.
    """
    mix = (generate_storm_mix(config) if config.storm
           else generate_mix(config))
    report = LoadtestReport(seed=config.seed,
                            fingerprint=mix_fingerprint(mix))
    t0 = time.perf_counter()
    if config.storm:
        asyncio.run(_run_storm(config, mix, report, metrics))
    else:
        asyncio.run(_run(config, mix, report, metrics))
    report.wall_s = time.perf_counter() - t0
    return report


def render_loadtest_report(report: LoadtestReport) -> str:
    """Human-readable report lines (CLI output)."""
    doc = report.to_dict()
    lines = [
        f"! loadtest: seed {doc['seed']}, mix {doc['fingerprint']}",
        f"! requests: {doc['sent']} sent, {doc['completed']} ok, "
        f"{doc['rejected']} rejected, {doc['errored']} errored",
    ]
    if doc["rejections_by_reason"]:
        reasons = ", ".join(f"{k}={v}" for k, v in
                            doc["rejections_by_reason"].items())
        lines.append(f"! shed load (typed): {reasons}")
    lines.append(
        f"! blocks: {doc['blocks_done']} done, "
        f"{doc['blocks_shed']} shed "
        f"(rate {doc['shed_rate']:.1%})")
    if doc["shed_by_reason"]:
        reasons = ", ".join(f"{k}={v}" for k, v in
                            doc["shed_by_reason"].items())
        lines.append(f"! shed reasons: {reasons}")
    lines.append(
        f"! latency: p50 {doc['p50_s'] * 1000:.1f} ms, "
        f"p99 {doc['p99_s'] * 1000:.1f} ms; "
        f"throughput {doc['throughput_rps']:.1f} req/s")
    lines.append(
        f"! error budget: {doc['deadlines_met']} of "
        f"{doc['deadlined']} deadlined requests met their deadline "
        f"({doc['error_budget_ok']:.1%})")
    lines.append(
        f"! tracing: {doc['traced_frames']} frames echoed their "
        f"request's trace id, {doc['trace_mismatches']} mismatched "
        f"({'OK' if doc['trace_mismatches'] == 0 else 'FAILED'})")
    if doc["retries_sent"]:
        lines.append(
            f"! idempotency: {doc['retries_sent']} duplicate-key "
            f"resends, {doc['retries_deduped']} deduped, "
            f"{doc['retries_rejected']} rejected, "
            f"{doc['duplicate_results']} duplicate results "
            f"({'OK' if doc['duplicate_results'] == 0 else 'FAILED'})")
    storm = doc.get("storm")
    if storm:
        seen = "/".join(f"L{level}" for level in storm["levels_seen"])
        lines.append(
            f"! storm ladder: max L{storm['max_level']}, "
            f"seen {seen or 'L?'}, "
            f"{storm['transitions_total']} transitions "
            f"({storm['ascents_total']} up, "
            f"{storm['descents_total']} down), "
            f"{'recovered to L0' if storm['recovered'] else 'DID NOT RECOVER'}")
        for cls in sorted(storm["by_class"]):
            s = storm["by_class"][cls]
            lines.append(
                f"! storm[{cls}]: {s['sent']} sent, "
                f"{s['completed']} ok, "
                f"{s['rejected_overload']} overload-rejected, "
                f"{s['rejected_other']} other-rejected, "
                f"{s['errored']} errored, {s['retries']} retries; "
                f"budget {s['budget_ok']:.1%}, "
                f"p99 {s['p99_s'] * 1000:.1f} ms")
    return "\n".join(lines)
