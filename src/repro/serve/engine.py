"""Per-request execution: deadlines, WAL replays, shed accounting.

:func:`run_request` is the bridge between one admitted wire request
and the existing resilient runner.  Its contract is the accounting
invariant the chaos harness asserts:

    ``scheduled + degraded + quarantined + shed == n_blocks``

for *every* admitted request -- deadline expiry, client disconnect,
and server drain all convert the unprocessed remainder into typed
``shed`` frames instead of losing it.

Every request runs on :func:`~repro.runner.batch.run_batch`, the one
per-block loop, in-process or on a supervised pool.  The engine adds
what a wire request needs around it: WAL-recorded blocks re-emitted
in program order, frames streamed as outcomes land, and stop points
between blocks.

Deadline propagation is two-level.  Between blocks the engine checks
the remaining request budget and sheds the rest the moment it is
spent; *within* a block the request deadline rides in the
:class:`~repro.runner.watchdog.Budget`, so every attempt's watchdog
gets ``min(block_wall_s, time left)`` and a single pathological block
cannot blow through the request deadline by more than the watchdog's
check interval.

The dependence cache is the caller's: the daemon passes the warm
per-(executor thread, machine) :class:`PairwiseCache` its
:class:`~repro.serve.server.ReproServer` keeps, so requests served by
the same thread reuse each other's dependence work -- the
repeated-kernel traffic a scheduling service actually sees -- without
a lock on the hot path.
"""

from __future__ import annotations

import time
from typing import Callable

from repro.asm import parse_asm
from repro.cfg.basic_block import BasicBlock
from repro.dag.builders import PairwiseCache
from repro.errors import ReproError, RequestRejected
from repro.machine.model import MachineModel
from repro.obs.metrics import MetricsRegistry, record_deadline
from repro.obs.trace import NULL_TRACER, Tracer
from repro.runner.batch import record_block, run_batch
from repro.runner.fallback import BlockOutcome
from repro.runner.watchdog import Budget
from repro.serve import protocol
from repro.serve.protocol import (
    REJECT_TOO_LARGE,
    SHED_DEADLINE,
    ScheduleRequest,
)
from repro.cfg import apply_window, partition_blocks, pin_delay_slot_occupants
from repro.workloads.kernels import straightline_body, straightline_source

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
        block_wall_s: per-attempt wall-clock cap, further tightened to
            the time left before the request's deadline.
        max_work: per-attempt construction-work budget.
        cache: dependence cache; default is a fresh one for this
            request.  With ``jobs >= 2`` each pool worker builds its
            own instead.
        metrics: optional registry: per-block structure, outcome and
            builder counters (the same stable set at every ``jobs``
            value, WAL replays included) plus the deadline counter.
        breaker: optional shared per-builder circuit breaker.
        cancelled: polled between blocks; returning a shed reason
            (e.g. ``"disconnect"``, ``"drain"``) sheds the remainder.
        clock: injectable monotonic clock for the between-block
            deadline checks (the watchdog always reads
            :func:`time.monotonic`).
        jobs: worker processes for
            :func:`~repro.runner.batch.run_batch`; ``>= 2`` runs the
            request on a supervised pool (crash isolation, retry,
            quarantine) built per request -- heavyweight, so ``1`` is
            the default and the pool is for big requests and the
            chaos harness.
        chaos / retry / task_timeout / quarantine_dir / mem_limit_mb:
            forwarded to :func:`~repro.runner.batch.run_batch` for the
            pool (fault injection, retry policy, hang detector,
            reproducer directory, worker memory ceiling).
        completed: already-recorded block records by block index (WAL
            replay after a daemon crash) -- those blocks are re-emitted
            verbatim in program order instead of recomputed
            (exactly-once results) and counted in the summary's
            ``replayed``; only the missing blocks run.
        tracer: optional tracer; the request runs inside one
            ``request`` span carrying the wire ``id`` and client
            ``trace`` id, with the builder/attempt spans nested under
            it -- the server-side half of end-to-end tracing.

    Returns:
        The summary dict for the ``done`` frame, satisfying
        ``scheduled + degraded + quarantined + shed == n_blocks``.
    """
    if cache is None:
        cache = PairwiseCache()
    tracer = tracer if tracer is not None else NULL_TRACER
    t0 = clock()
    deadline = (t0 + request.deadline_s
                if request.deadline_s is not None else None)
    # The watchdog reads the real monotonic clock; ``clock`` only
    # drives the between-block checks.
    budget = Budget(wall_clock=block_wall_s, max_work=max_work,
                    deadline=(time.monotonic() + request.deadline_s
                              if request.deadline_s is not None else None))

    n_scheduled = n_degraded = n_quarantined = n_done = 0
    n_replayed = 0
    makespan = original = 0
    shed_reasons: dict[str, int] = {}
    shed_from: int | None = None
    completed = completed or {}

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

    def stop_point() -> None:
        """Re-emit the recorded blocks up to the next fresh one, then
        stop there if the request is cancelled or out of time."""
        nonlocal n_replayed, n_done
        while n_done < len(blocks) and blocks[n_done].index in completed:
            block = blocks[n_done]
            recorded = completed[block.index]
            # WAL replay: the result already crossed a socket once;
            # re-emit it verbatim rather than recompute (dedup).
            n_replayed += 1
            if recorded.get("type") == "shed":
                why = str(recorded.get("reason", "replay"))
                shed_reasons[why] = shed_reasons.get(why, 0) + 1
                n_done += 1
                emit(protocol.shed_frame(request.id, block.index, why,
                                         trace=request.trace))
            else:
                outcome = BlockOutcome.from_record(recorded)
                record_block(metrics, block, outcome, replayed=True)
                account(outcome)
        reason = cancelled() if cancelled is not None else None
        if not reason and deadline is not None and clock() >= deadline:
            reason = SHED_DEADLINE
        if reason and n_done < len(blocks):
            raise RequestCancelled(reason)

    def on_block(outcome) -> None:
        account(outcome)
        stop_point()

    with tracer.span("request", id=request.id,
                     trace=request.trace or "",
                     tenant=request.tenant,
                     n_blocks=len(blocks)) as span_attrs:
        try:
            # run_batch consumes outcomes in program order, so a stop
            # raised from ``on_block`` sheds exactly the untouched
            # suffix; a pool is torn down by run_batch's own cleanup.
            stop_point()
            run_batch([b for b in blocks if b.index not in completed],
                      machine,
                      chain=request.chain or chain_names,
                      budget=budget, verify=request.verify, jobs=jobs,
                      cache=cache, metrics=metrics, on_block=on_block,
                      tracer=tracer, breaker=breaker, chaos=chaos,
                      retry=retry, task_timeout=task_timeout,
                      quarantine_dir=quarantine_dir,
                      mem_limit_mb=mem_limit_mb)
        except RequestCancelled as exc:
            shed_from = n_done
            count = len(blocks) - n_done
            shed_reasons[exc.reason] = (shed_reasons.get(exc.reason, 0)
                                        + count)
            for late in blocks[n_done:]:
                emit(protocol.shed_frame(request.id, late.index,
                                         exc.reason,
                                         trace=request.trace))
        span_attrs["scheduled"] = n_scheduled
        span_attrs["shed"] = sum(shed_reasons.values())

    n_shed = sum(shed_reasons.values())
    wall_s = clock() - t0
    if deadline is not None:
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
