"""The serve-durable workload: an open-loop client against
``repro serve --wal-dir``.

One client process drives the daemon over two pipelined unix-socket
connections, sending each seeded request when it is due whether or not
earlier ones have finished.  Latency runs from when a request was due
to its ``done`` frame, so a stall is charged to every request it
delays.  Admission limits sit well above the offered rate, so
rejections would measure the program rather than a setting.
Throughput is instructions per second of the daemon's own CPU time,
not per wall second: under an open-loop client the wall rate is the
offered load, whatever the daemon's speed.

``--trace 1`` splits the run into an untraced half and a traced half.
The traced half timestamps every frame, which splits each request into
accept (send to ``accepted``), queue (``accepted`` to the first block,
less that block's own ``wall_s``), exec (the blocks' ``wall_s``) and
emit (the rest: frame writes and per-block WAL fsyncs), and then asks
the daemon's ``health`` and ``stats`` ops for cache and admission state.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import signal
import socket
import subprocess
import sys
import time
from statistics import median

from repro.serve.engine import request_blocks
from repro.serve.protocol import MAX_LINE_BYTES, ScheduleRequest, encode

import inputs
from checks import FAILED, CheckTally, check_order
from timing import host_probe, percentile, pid_cpu_s, pid_peak_rss_mb

#: daemon settings: admission far above the offered rate
WORKERS = 2
MAX_QUEUED = 256
TENANT_RATE = 1000.0
TENANT_BURST = 1000.0
#: daemon cold starts timed for ``setup_s`` before the session, and
#: again after it, so they see the same host drift as the session (one
#: discarded start first fills the byte-code cache)
SETUP_SAMPLES_EACH_SIDE = 3
#: a run whose generator sent later than this at p99 is invalid
LAG_LIMIT_MS = 50.0
START_TIMEOUT_S = 30.0
DRAIN_TIMEOUT_S = 30.0
#: time allowed after the last send for outstanding requests to end
SETTLE_TIMEOUT_S = 30.0
DRAINED_LINE = "drained, all requests accounted"


class Daemon:
    """One ``repro serve --wal-dir`` process with its socket and WAL."""

    def __init__(self, root: str, tmp: str, name: str, env: dict) -> None:
        self.root, self.env = root, env
        self.sock = os.path.join(tmp, f"{name}.sock")
        self.wal_dir = os.path.join(tmp, f"{name}-wal")
        self.log_path = os.path.join(tmp, f"{name}.log")
        self.proc: subprocess.Popen | None = None

    def start(self) -> float:
        """Spawn the daemon; seconds until its first ``ready`` ok."""
        cmd = [sys.executable, "-m", "repro", "serve",
               "--address", f"unix:{self.sock}", "--wal-dir", self.wal_dir,
               "--workers", str(WORKERS), "--max-queued", str(MAX_QUEUED),
               "--tenant-rate", str(TENANT_RATE),
               "--tenant-burst", str(TENANT_BURST)]
        t0 = time.perf_counter()
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(cmd, cwd=self.root, env=self.env,
                                         stdout=log, stderr=subprocess.STDOUT)
        while not self._ready():
            if self.proc.poll() is not None:
                raise RuntimeError(f"daemon exited {self.proc.returncode} "
                                   f"before it was ready")
            if time.perf_counter() - t0 > START_TIMEOUT_S:
                raise RuntimeError("daemon never became ready")
            time.sleep(0.002)
        return time.perf_counter() - t0

    def _ready(self) -> bool:
        try:
            with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as conn:
                conn.settimeout(5.0)
                conn.connect(self.sock)
                conn.sendall(encode({"op": "ready"}))
                line = conn.makefile("rb").readline()
        except OSError:
            return False
        return bool(line) and json.loads(line).get("ok") is True

    def peak_rss_mb(self) -> float:
        return pid_peak_rss_mb(self.proc.pid)

    def cpu_s(self) -> tuple[float, float]:
        """(user, system) CPU seconds the daemon has used so far."""
        return pid_cpu_s(self.proc.pid)

    def stop(self) -> None:
        """SIGTERM, then require a clean drain: exit 0, no process left."""
        self.proc.send_signal(signal.SIGTERM)
        code = self.proc.wait(timeout=DRAIN_TIMEOUT_S)
        with open(self.log_path, encoding="utf-8", errors="replace") as log:
            drained = DRAINED_LINE in log.read()
        if code != 0 or not drained:
            raise RuntimeError(f"daemon drain failed (exit {code}, "
                               f"drained line {'seen' if drained else 'missing'})")

    def kill(self) -> None:
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()

    def wal_stats(self) -> tuple[int, int]:
        """(records, bytes) of the daemon's WAL file."""
        path = os.path.join(self.wal_dir, "serve.wal")
        with open(path, "rb") as handle:
            data = handle.read()
        return data.count(b"\n"), len(data)


class _Request:
    __slots__ = ("message", "wire", "due", "sent", "accepted", "first_block",
                 "first_wall", "exec_s", "done", "status", "summary",
                 "blocks")

    def __init__(self, message: dict, due: float) -> None:
        self.message = message
        self.wire = encode(message)
        self.due = due
        self.sent = self.accepted = self.first_block = self.done = None
        self.first_wall = None
        self.exec_s = 0.0
        self.status = None
        self.summary = None
        self.blocks: dict[int, list[int]] = {}


async def _session(sock: str, schedule: list[tuple[float, dict]],
                   traced: bool) -> list[_Request]:
    """Send ``schedule`` open loop; returns its requests.

    Every request's ``done`` time is recorded; with ``traced`` also its
    ``accepted`` and first-block times and its blocks' ``wall_s``.
    """
    requests = [_Request(message, offset) for offset, message in schedule]
    by_id = {r.message["id"]: r for r in requests}
    open_count = len(requests)
    all_done = asyncio.Event()
    conns = [await asyncio.open_unix_connection(sock, limit=MAX_LINE_BYTES)
             for _ in range(inputs.SERVE_CONNECTIONS)]

    async def reader(stream: asyncio.StreamReader) -> None:
        nonlocal open_count
        while line := await stream.readline():
            now = time.perf_counter()
            frame = json.loads(line)
            request = by_id.get(frame.get("id"))
            if request is None:
                continue
            kind = frame["type"]
            if kind == "block":
                record = frame["block"]
                request.blocks[record["index"]] = record["order"]
                if traced:
                    if request.first_block is None:
                        request.first_block = now
                        request.first_wall = record["wall_s"]
                    request.exec_s += record["wall_s"]
            elif kind == "accepted":
                if traced:
                    request.accepted = now
            elif kind in ("done", "rejected", "error"):
                request.done = now
                request.status = kind
                request.summary = frame.get("summary")
                open_count -= 1
                if open_count == 0:
                    all_done.set()

    async def sender(writer: asyncio.StreamWriter,
                     mine: list[_Request]) -> None:
        for request in mine:
            delay = request.due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            request.sent = time.perf_counter()
            writer.write(request.wire)
            await writer.drain()

    start = time.perf_counter() + 0.05
    for request in requests:
        request.due += start
    n = len(conns)
    readers = [asyncio.create_task(reader(r)) for r, _ in conns]
    try:
        await asyncio.gather(*(sender(w, requests[k::n])
                               for k, (_, w) in enumerate(conns)))
        try:
            await asyncio.wait_for(all_done.wait(), SETTLE_TIMEOUT_S)
        except asyncio.TimeoutError:
            pass  # unanswered requests count as failed
    finally:
        for _, writer in conns:
            writer.close()
        await asyncio.gather(*readers, return_exceptions=True)
    return requests


async def _ops(sock: str) -> dict:
    """The daemon's ``health`` and ``stats`` frames."""
    reader, writer = await asyncio.open_unix_connection(
        sock, limit=MAX_LINE_BYTES)
    frames = {}
    try:
        for op in ("health", "stats"):
            writer.write(encode({"op": op}))
            await writer.drain()
            frames[op] = json.loads(await reader.readline())
    finally:
        writer.close()
        await writer.wait_closed()
    return frames


class _Checker:
    """Independent check of each request's block frames, memoized on
    (request body, block, order): kernel requests repeat."""

    def __init__(self) -> None:
        self.tally = CheckTally()
        self._blocks: dict[str, dict] = {}
        self._verdicts: dict[tuple, str] = {}

    def request_ok(self, request: _Request) -> bool:
        summary = request.summary
        if (request.status != "done" or summary["scheduled"]
                != summary["n_blocks"]
                or len(request.blocks) != summary["n_blocks"]):
            return False
        body = json.dumps({k: request.message.get(k)
                           for k in ("asm", "workload")}, sort_keys=True)
        blocks = self._blocks.get(body)
        if blocks is None:
            parsed = request_blocks(ScheduleRequest.from_message(
                request.message))
            blocks = self._blocks[body] = {b.index: b for b in parsed}
        ok = True
        for index, order in request.blocks.items():
            key = (body, index, tuple(order))
            verdict = self._verdicts.get(key)
            if verdict is None:
                block = blocks.get(index)
                verdict = (FAILED if block is None
                           else check_order(block, order))
                self._verdicts[key] = verdict
            self.tally.add(verdict)
            ok = ok and verdict != FAILED
        return ok


def _ms(seconds: list[float]) -> tuple[float, float]:
    return (percentile(seconds, 0.50) * 1000.0,
            percentile(seconds, 0.99) * 1000.0)


def _decompose(requests: list[_Request]) -> dict:
    """Per-request accept/queue/exec/emit split of the traced half."""
    parts = {"accept": [], "queue": [], "exec": [], "emit": []}
    for r in requests:
        if r.status != "done" or r.first_block is None:
            continue
        accept = r.accepted - r.sent
        queue = (r.first_block - r.accepted) - r.first_wall
        parts["accept"].append(accept)
        parts["queue"].append(queue)
        parts["exec"].append(r.exec_s)
        parts["emit"].append((r.done - r.sent) - accept - queue - r.exec_s)
    layers = {}
    for name, values in parts.items():
        p50, p99 = _ms(values)
        layers[f"serve.{name}_p50_ms"] = p50
        layers[f"serve.{name}_p99_ms"] = p99
    return layers


def run(seed: int, seconds: float, trace: bool, root: str, tmp: str,
        env: dict) -> dict | None:
    """One serve-durable run; None when the generator fell behind."""
    info = []
    probe_before = host_probe()
    schedule = inputs.serve_schedule(seed, seconds)
    info.append("request schedule sha256 "
                + inputs.fingerprint_schedule(schedule)
                + f" ({len(schedule)} requests at {inputs.SERVE_RATE:g}/s)")
    if trace:
        # The second half is sent as a session of its own, from 0.
        cut = len(schedule) // 2
        base = schedule[cut][0]
        halves = [schedule[:cut],
                  [(offset - base, message)
                   for offset, message in schedule[cut:]]]
    else:
        halves = [schedule]

    daemons = []

    def cold_starts(count: int) -> list[float]:
        samples = []
        for _ in range(count):
            daemon = Daemon(root, tmp, f"cold{len(daemons)}", env)
            daemons.append(daemon)
            samples.append(daemon.start())
            daemon.stop()
        return samples

    try:
        cold_starts(1)  # fills the byte-code cache; not timed
        samples = cold_starts(SETUP_SAMPLES_EACH_SIDE)
        daemon = Daemon(root, tmp, "session", env)
        daemons.append(daemon)
        daemon.start()
        cpu_before = daemon.cpu_s()
        sessions = [asyncio.run(_session(daemon.sock, half,
                                         traced=trace and k == 1))
                    for k, half in enumerate(halves)]
        user, system = (after - before for after, before
                        in zip(daemon.cpu_s(), cpu_before))
        frames = asyncio.run(_ops(daemon.sock))
        peak_rss = daemon.peak_rss_mb()
        daemon.stop()
        wal_records, wal_bytes = daemon.wal_stats()
        samples += cold_starts(SETUP_SAMPLES_EACH_SIDE)
        setup = median(samples)
    finally:
        for daemon in daemons:
            daemon.kill()
    probe_after = host_probe()

    requests = [r for reqs in sessions for r in reqs]
    lag_p99 = _ms([r.sent - r.due for r in requests])[1]
    info.append(f"generator lag p99 {lag_p99:.3f} ms "
                f"(limit {LAG_LIMIT_MS:g} ms)")
    if lag_p99 > LAG_LIMIT_MS:
        print("perfbench: serve-durable generator fell behind its "
              f"schedule (lag p99 {lag_p99:.1f} ms); run not reported",
              file=sys.stderr)
        return None

    checker = _Checker()
    ok = [checker.request_ok(r) for r in requests]
    attempted, failed = len(requests), ok.count(False)
    info.append(checker.tally.summary())
    info.append(f"{attempted - failed} of {attempted} requests ok; daemon "
                f"drained with exit 0")
    info.append(f"host probe {probe_before:.4f} s before, "
                f"{probe_after:.4f} s after")

    good = [r for r, fine in zip(requests, ok) if fine]
    latencies = [(r.done - r.due) if fine else math.inf
                 for r, fine in zip(requests, ok)]
    p50, p99 = _ms(latencies)
    insts = sum(len(order) for r in good for order in r.blocks.values())
    info.append(f"daemon CPU {user + system:.2f} s (user {user:.2f} s, "
                f"system {system:.2f} s) for {insts} instructions")
    makespan = sum(r.summary["makespan"] for r in good)
    original = sum(r.summary["original_makespan"] for r in good)
    e2e = {
        "insts_per_s": insts / (user + system),
        "latency_p50_ms": p50,
        "latency_p99_ms": p99,
        "ok_frac": (attempted - failed) / attempted,
        "makespan_ratio": original / makespan if makespan else 0.0,
        "peak_rss_mb": peak_rss,
        "setup_s": setup,
    }

    layers = {"client.lag_p99_ms": lag_p99,
              "host.probe_s": median([probe_before, probe_after]),
              "serve.wal_records": wal_records,
              "serve.wal_bytes": wal_bytes}
    if trace:
        untraced, traced = sessions
        layers.update(_decompose(traced))

        def p50_of(reqs):
            return median([r.done - r.due for r in reqs
                           if r.status == "done"])

        layers["trace.overhead_frac"] = p50_of(traced) / p50_of(untraced) - 1
        health, stats = frames["health"], frames["stats"]
        cache = health["cache"]
        layers.update({
            "cache.hits": cache["hits"],
            "cache.misses": cache["misses"],
            "cache.bundle_hits": cache["bundle_hits"],
            "cache.hit_ratio": cache["hit_rate"],
            "serve.rejected": stats["admission"]["rejected_total"],
            "serve.shed_blocks": stats["server"]["blocks_shed"],
            "serve.occupancy_max":
                stats["admission"]["occupancy_high_water"],
            "serve.overload_max_level": stats["overload"].get("max_level", 0),
        })
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "e2e": e2e, "layers": layers, "info": info}
