"""Per-request execution: deadlines, warm caches, shed accounting.

:func:`run_request` is the bridge between one admitted wire request
and the existing resilient runner.  Its contract is the accounting
invariant the chaos harness asserts:

    ``scheduled + degraded + quarantined + shed == n_blocks``

for *every* admitted request -- deadline expiry, client disconnect,
and server drain all convert the unprocessed remainder into typed
``shed`` frames instead of losing it.

Deadline propagation is two-level.  Between blocks the engine checks
the remaining request budget and sheds the rest the moment it is
spent; *within* a block the remaining budget caps the per-block
wall-clock :class:`~repro.runner.watchdog.Budget` handed to
:func:`~repro.runner.fallback.schedule_block_resilient`, so a single
pathological block cannot blow through the request deadline by more
than the watchdog's check interval.

Caches are warm but not shared: :class:`PairwiseCache` is a plain
``OrderedDict`` LRU with no locking, so the engine keeps one cache
per (executor thread, machine) pair.  Requests served by the same
thread reuse each other's dependence work -- the repeated-kernel
traffic a scheduling service actually sees -- without a lock on the
hot path.  :func:`cache_stats` aggregates hit/miss/size across all
live thread caches for the health endpoint.
"""

from __future__ import annotations

import threading
import time
from typing import Callable

from repro.asm import parse_asm
from repro.cfg.basic_block import BasicBlock
from repro.dag.builders import PairwiseCache
from repro.errors import ReproError, RequestRejected
from repro.machine.model import MachineModel
from repro.obs.metrics import MetricsRegistry, record_deadline, record_shed_blocks
from repro.obs.trace import NULL_TRACER, Tracer
from repro.runner.batch import record_block, run_batch
from repro.runner.fallback import (
    DEFAULT_CHAIN,
    BlockOutcome,
    resolve_chain,
    schedule_block_resilient,
)
from repro.runner.watchdog import Budget
from repro.serve import protocol
from repro.serve.protocol import (
    REJECT_TOO_LARGE,
    SHED_DEADLINE,
    ScheduleRequest,
)
from repro.cfg import apply_window, partition_blocks, pin_delay_slot_occupants
from repro.workloads.kernels import straightline_body, straightline_source

#: per-(thread, machine) warm caches; see module docstring.  The
#: registry keeps ``(thread_name, machine_name, cache)`` so the
#: health endpoint can report each warm cache individually.
_thread_caches = threading.local()
_all_caches: list[tuple[str, str, PairwiseCache]] = []
_all_caches_lock = threading.Lock()


def warm_cache(machine_name: str,
               max_entries: int = 512) -> PairwiseCache:
    """This thread's warm dependence cache for ``machine_name``.

    Created on first use, LRU-capped at ``max_entries``, and
    registered so :func:`cache_stats` / :func:`cache_details` can
    report across threads.
    """
    caches = getattr(_thread_caches, "caches", None)
    if caches is None:
        caches = _thread_caches.caches = {}
    cache = caches.get(machine_name)
    if cache is None:
        cache = caches[machine_name] = PairwiseCache(
            max_entries=max_entries)
        with _all_caches_lock:
            _all_caches.append((threading.current_thread().name,
                                machine_name, cache))
    elif cache.max_entries != max_entries:
        # The degradation ladder clamps warm caches at L1+ and
        # restores them on descent; resizing here keeps the mutation
        # on the cache's owning thread (the caches are lock-free).
        cache.resize(max_entries)
    return cache


def cache_stats() -> dict:
    """Aggregate hit/miss/size over every live warm cache."""
    with _all_caches_lock:
        caches = [c for _t, _m, c in _all_caches]
    hits = sum(c.hits for c in caches)
    misses = sum(c.misses for c in caches)
    return {"caches": len(caches), "hits": hits, "misses": misses,
            "bundle_hits": sum(c.bundle_hits for c in caches),
            "entries": sum(len(c) for c in caches),
            "hit_rate": round(hits / (hits + misses), 4)
            if hits + misses else 0.0}


def release_caches() -> int:
    """Drop every warm cache's entries; returns entries released.

    The degradation ladder's emergency action (L4): nothing new is
    being admitted, so reclaiming the dependence caches is the
    biggest memory lever left.  Best-effort against a request still
    draining on another thread -- a concurrently-cleared entry just
    costs that request a rebuild, never correctness (every dict
    operation is individually atomic under the GIL).
    """
    with _all_caches_lock:
        caches = [c for _t, _m, c in _all_caches]
    released = sum(len(c) for c in caches)
    for cache in caches:
        cache.clear()
    return released


def cache_details() -> list[dict]:
    """Per-(thread, machine) warm-cache ``info()`` rows.

    The health endpoint exposes these so an operator can see which
    executor threads are actually warm (``hits``/``bundle_hits``
    climbing) and which machines they are warm *for*.
    """
    with _all_caches_lock:
        entries = list(_all_caches)
    return [dict(thread=thread, machine=machine, **cache.info())
            for thread, machine, cache in entries]


def request_blocks(request: ScheduleRequest,
                   max_blocks: int | None = None) -> list[BasicBlock]:
    """Expand a request's program into schedulable basic blocks.

    ``max_blocks`` bounds the expansion *before* it happens: a
    workload's ``copies`` is capped at ``max_blocks`` so a tiny wire
    request cannot make the server materialise a multi-gigabyte
    source string that the post-expansion admission check would only
    reject once the memory is already spent.  (Assembly text needs no
    pre-check -- it is already capped at the wire's line limit.)

    Raises:
        RequestRejected: typed ``request-too-large`` when the workload
            would expand past ``max_blocks`` copies.
        ReproError: for unparseable assembly, unknown kernels, or an
            empty program (all typed subclasses).
    """
    window = request.window
    if request.asm is not None:
        source = request.asm
        name = f"<request {request.id}>"
    else:
        spec = request.workload or {}
        copies = spec.get("copies", 1)
        if not isinstance(copies, int) or copies < 1:
            raise ReproError(
                f"request {request.id!r}: workload 'copies' must be "
                f"a positive integer, got {copies!r}")
        kernel = str(spec["kernel"])
        if max_blocks is not None and copies > max_blocks:
            raise RequestRejected(
                f"request {request.id!r}: workload copies={copies} "
                f"exceeds the {max_blocks}-block request cap",
                reason=REJECT_TOO_LARGE, tenant=request.tenant)
        source = straightline_source(kernel, copies)
        if window is None:
            # The expansion is one long straight-line stream; window
            # it at the body length so each copy is its own block
            # (the repeated-inner-loop shape the cache feeds on).
            window = len(straightline_body(kernel))
        name = f"<workload {kernel}x{copies}>"
    program = parse_asm(source, name, lenient=request.lenient)
    return pin_delay_slot_occupants(
        apply_window(partition_blocks(program), window))


class RequestCancelled(Exception):
    """Internal: stop a request mid-stream; carries the shed reason."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


def run_request(request: ScheduleRequest,
                machine: MachineModel,
                blocks: list[BasicBlock],
                emit: Callable[[dict], None],
                chain_names: tuple[str, ...] | None = None,
                block_wall_s: float | None = 30.0,
                max_work: int | None = None,
                cache: PairwiseCache | None = None,
                metrics: MetricsRegistry | None = None,
                breaker: object | None = None,
                cancelled: Callable[[], str | None] | None = None,
                clock: Callable[[], float] = time.monotonic,
                jobs: int = 1,
                chaos: object | None = None,
                retry: object | None = None,
                task_timeout: float | None = 60.0,
                quarantine_dir: str | None = None,
                mem_limit_mb: int | None = None,
                completed: dict[int, dict] | None = None,
                tracer: Tracer | None = None) -> dict:
    """Schedule one admitted request's blocks, streaming as they land.

    Runs in an executor thread.  Emits one ``block`` frame per
    completed block and one ``shed`` frame per unprocessed block, in
    program order, then returns the ``done`` summary.  Never raises
    for deadline expiry or cancellation -- those are *outcomes*
    (typed shed records), not errors; only genuinely broken input
    (which the caller turns into an ``error`` frame) propagates.

    Args:
        request: the validated wire request.
        machine: resolved timing model.
        blocks: pre-expanded blocks (so admission could count them).
        emit: thread-safe frame sink (the server bridges it onto the
            asyncio loop).
        chain_names: builder fallback chain (request override wins).
        block_wall_s: per-block wall-clock cap, further tightened to
            the request's remaining deadline each block.
        max_work: per-attempt construction-work budget.
        cache: dependence cache override; default is this thread's
            warm per-machine cache.
        metrics: optional registry: per-block structure, outcome and
            builder counters (the same stable set on both paths, WAL
            replays included) plus shed/deadline counters.
        breaker: optional shared per-builder circuit breaker.
        cancelled: polled between blocks; returning a shed reason
            (e.g. ``"disconnect"``, ``"drain"``) sheds the remainder.
        clock: injectable monotonic clock for deterministic deadline
            tests.
        jobs: ``>= 2`` runs the request on the supervised worker pool
            (crash isolation, retry, quarantine) via
            :func:`~repro.runner.batch.run_batch`; ``1`` runs the
            serial in-process loop.  A pool is built per request --
            heavyweight, so the serial path is the default and the
            pooled path is for big requests and the chaos harness.
        chaos / retry / task_timeout / quarantine_dir / mem_limit_mb:
            forwarded to :func:`~repro.runner.batch.run_batch` on the
            pooled path (fault injection, retry policy, hang
            detector, reproducer directory, worker memory ceiling).
        completed: already-recorded block records by block index (WAL
            replay after a daemon crash) -- those blocks are re-emitted
            verbatim instead of recomputed (exactly-once results) and
            counted in the summary's ``replayed``.  A non-empty map
            forces the serial path so replay interleaves with fresh
            work in program order.
        tracer: optional tracer; the request runs inside one
            ``request`` span carrying the wire ``id`` and client
            ``trace`` id, with the builder/attempt spans nested under
            it -- the server-side half of end-to-end tracing.

    Returns:
        The summary dict for the ``done`` frame, satisfying
        ``scheduled + degraded + quarantined + shed == n_blocks``.
    """
    names = request.chain or chain_names or DEFAULT_CHAIN
    if cache is None:
        cache = warm_cache(request.machine)
    chain = resolve_chain(names, machine, cache=cache)
    tracer = tracer if tracer is not None else NULL_TRACER
    t0 = clock()
    deadline = (t0 + request.deadline_s
                if request.deadline_s is not None else None)

    n_scheduled = n_degraded = n_quarantined = n_done = 0
    n_replayed = 0
    makespan = original = 0
    shed_reasons: dict[str, int] = {}
    shed_from: int | None = None
    completed = completed or {}

    def remaining() -> float | None:
        if deadline is None:
            return None
        return deadline - clock()

    def check_stop() -> str | None:
        if cancelled is not None:
            reason = cancelled()
            if reason:
                return reason
        left = remaining()
        if left is not None and left <= 0:
            return SHED_DEADLINE
        return None

    def account(outcome) -> None:
        nonlocal n_scheduled, n_degraded, n_quarantined, n_done
        nonlocal makespan, original
        if outcome.quarantined:
            n_quarantined += 1
        elif outcome.degraded:
            n_degraded += 1
        else:
            n_scheduled += 1
        makespan += outcome.makespan
        original += outcome.original_makespan
        n_done += 1
        record = outcome.to_record(volatile=True)
        if request.trace is not None:
            record["trace"] = request.trace
        emit(protocol.block_frame(request.id, record,
                                  trace=request.trace))

    def shed_rest(reason: str) -> None:
        nonlocal shed_from
        shed_from = n_done
        count = len(blocks) - n_done
        shed_reasons[reason] = shed_reasons.get(reason, 0) + count
        for late in blocks[n_done:]:
            emit(protocol.shed_frame(request.id, late.index, reason,
                                     trace=request.trace))
        if metrics is not None:
            record_shed_blocks(metrics, count, reason)

    with tracer.span("request", id=request.id,
                     trace=request.trace or "",
                     tenant=request.tenant,
                     n_blocks=len(blocks)) as span_attrs:
        if jobs >= 2 and not completed:
            # Pooled path: a per-request supervised pool.  run_batch
            # consumes outcomes in program order, so a stop raised from
            # ``on_block`` sheds exactly the untouched suffix; the pool
            # is torn down by run_batch's own cleanup.
            def on_block(outcome) -> None:
                account(outcome)
                reason = check_stop()
                if reason is not None:
                    raise RequestCancelled(reason)

            wall = block_wall_s
            left = remaining()
            if left is not None:
                wall = left if wall is None else min(wall, left)
            try:
                run_batch(blocks, machine, chain=names,
                          budget=Budget(wall_clock=wall,
                                        max_work=max_work),
                          verify=request.verify, jobs=jobs,
                          metrics=metrics, on_block=on_block,
                          tracer=tracer, breaker=breaker,
                          chaos=chaos, retry=retry,
                          task_timeout=task_timeout,
                          quarantine_dir=quarantine_dir,
                          mem_limit_mb=mem_limit_mb)
            except RequestCancelled as exc:
                if n_done < len(blocks):
                    shed_rest(exc.reason)
            else:
                reason = check_stop()
                if reason is not None and n_done < len(blocks):
                    shed_rest(reason)
        else:
            for block in blocks:
                recorded = completed.get(block.index)
                if recorded is not None:
                    # WAL replay: the result already crossed a socket
                    # once; re-emit it verbatim rather than recompute
                    # (dedup).
                    n_replayed += 1
                    if recorded.get("type") == "shed":
                        why = str(recorded.get("reason", "replay"))
                        shed_reasons[why] = shed_reasons.get(why, 0) + 1
                        n_done += 1
                        emit(protocol.shed_frame(
                            request.id, block.index, why,
                            trace=request.trace))
                    else:
                        outcome = BlockOutcome.from_record(recorded)
                        record_block(metrics, block, outcome,
                                     replayed=True)
                        account(outcome)
                    continue
                reason = check_stop()
                if reason is not None:
                    shed_rest(reason)
                    break
                wall = block_wall_s
                left = remaining()
                if left is not None:
                    wall = left if wall is None else min(wall, left)
                outcome = schedule_block_resilient(
                    block, machine, chain,
                    budget=Budget(wall_clock=wall, max_work=max_work),
                    verify=request.verify, cache=cache,
                    metrics=metrics, breaker=breaker, tracer=tracer)
                record_block(metrics, block, outcome)
                account(outcome)
        span_attrs["scheduled"] = n_scheduled
        span_attrs["shed"] = sum(shed_reasons.values())

    n_shed = sum(shed_reasons.values())
    wall_s = clock() - t0
    if deadline is not None and metrics is not None:
        record_deadline(metrics, met=SHED_DEADLINE not in shed_reasons)
    summary = {
        "n_blocks": len(blocks),
        "scheduled": n_scheduled,
        "degraded": n_degraded,
        "quarantined": n_quarantined,
        "shed": n_shed,
        "replayed": n_replayed,
        "shed_reasons": dict(sorted(shed_reasons.items())),
        "shed_from": shed_from,
        "makespan": makespan,
        "original_makespan": original,
        "deadline_s": request.deadline_s,
        "deadline_met": (None if deadline is None
                         else SHED_DEADLINE not in shed_reasons),
        "wall_s": round(wall_s, 6),
        "cache": cache.info(),
    }
    assert (summary["scheduled"] + summary["degraded"]
            + summary["quarantined"] + summary["shed"]
            == summary["n_blocks"]), "request accounting broken"
    return summary
