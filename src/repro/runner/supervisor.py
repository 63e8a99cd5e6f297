"""Crash-isolated supervised worker pool for block-parallel runs.

On a bare ``ProcessPoolExecutor`` one segfaulting, OOM-killed, or
``os._exit``-ing worker raises ``BrokenProcessPool`` on every pending
future and aborts the whole batch, losing all in-flight work and
bypassing the fallback/degradation machinery entirely.  This module,
the only pool ``--jobs N`` runs on, treats worker death as a
recoverable, observable event instead:

* **crash isolation** -- each worker is its own
  :class:`multiprocessing.Process` speaking a small message protocol
  over a pipe.  A dying worker takes down exactly one block attempt,
  never the batch.
* **heartbeats** -- a worker announces ``start`` when it picks up a
  task and ``attempt`` at every fallback-chain entry, so the
  supervisor knows which block (and which builder) was live when a
  process died, and can detect a hung worker by its silence
  (``task_timeout``).
* **retry with backoff** -- a crashed or poisoned block is re-enqueued
  with exponential backoff plus deterministic seeded jitter
  (:class:`RetryPolicy`), up to a bounded retry budget.
* **quarantine** -- a block that exhausts its budget is quarantined:
  it degrades to its original order (always correct), a minimized
  reproducer ``.s`` file is written (reusing the fuzz harness's
  delta-debugging loop), and the journal records a ``quarantined``
  line so ``--resume`` replays the verdict instead of re-triggering
  the crash.
* **circuit breaker** -- repeated crashes/timeouts attributed to one
  builder open that builder's breaker (:class:`CircuitBreaker`):
  subsequent blocks route straight to the next chain entry until a
  half-open probe succeeds.

Healthy blocks are unaffected: their outcomes are computed by the same
per-block code as a serial run and consumed in program order, so
journal lines, callbacks, and aggregates stay byte-identical to it.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import signal
import time
from dataclasses import dataclass, field
from multiprocessing.connection import Connection, wait as mp_wait
from typing import Callable, Sequence

from repro.cfg.basic_block import BasicBlock
from repro.dag.builders.cache import PairwiseCache
from repro.errors import ReproError
from repro.machine.model import MachineModel
from repro.obs.metrics import (
    MetricsRegistry,
    record_breaker_transition,
    record_cache,
    record_quarantine,
    record_retry,
    record_worker_crash,
    record_worker_restart,
)
from repro.obs.trace import NULL_TRACER, Tracer
from repro.runner.fallback import (
    Attempt,
    BlockOutcome,
    resolve_chain,
    schedule_block_resilient,
)
from repro.runner.watchdog import Budget
from repro.verify.checker import degraded_timing

# -- worker-side execution -------------------------------------------------
#
# Worker processes rebuild their chain (and their own pairwise cache)
# from plain picklable inputs: the section 6 priority and injected
# chain factories are closures, which is why ``jobs > 1`` refuses
# them.  Workers ship back ``(outcome, obs)`` -- the block's
# BlockOutcome, flat statistics included, plus its trace entries and
# metrics dump -- and the parent consumes them in program order.

_WORKER_STATE: dict = {}


def _apply_mem_ceiling(mem_limit_mb: int | None) -> None:
    """Arm the opt-in per-worker address-space ceiling.

    With ``RLIMIT_AS`` set, a runaway allocation fails *inside* the
    worker as a ``MemoryError`` (attributed to its block and builder,
    crash kind ``"oom"``) instead of growing until the kernel OOM
    killer SIGKILLs an arbitrary process.  Platforms without the
    ``resource`` module (or that refuse the limit) run without a
    ceiling -- the feature is opt-in and advisory, never required for
    correctness.
    """
    if not mem_limit_mb:
        return
    try:
        import resource as _resource
        limit = int(mem_limit_mb) * 1024 * 1024
        _resource.setrlimit(_resource.RLIMIT_AS, (limit, limit))
    except (ImportError, ValueError, OSError):  # pragma: no cover
        pass


def _init_worker(machine: MachineModel, chain_names: tuple[str, ...],
                 budget: Budget | None, verify: bool, use_cache: bool,
                 trace: bool = False, metrics: bool = False,
                 mem_limit_mb: int | None = None) -> None:
    """Per-process setup: resolve the chain once, not per block."""
    _apply_mem_ceiling(mem_limit_mb)
    cache = PairwiseCache() if use_cache else None
    _WORKER_STATE["machine"] = machine
    _WORKER_STATE["chain"] = resolve_chain(chain_names, machine,
                                           cache=cache)
    _WORKER_STATE["budget"] = budget
    _WORKER_STATE["verify"] = verify
    _WORKER_STATE["cache"] = cache
    _WORKER_STATE["trace"] = trace
    _WORKER_STATE["metrics"] = metrics


def _run_block(block: BasicBlock,
               skip_builders: Sequence[str] = (),
               on_attempt: Callable[[str], None] | None = None) -> tuple[
        BlockOutcome, tuple[list[dict], list[dict]] | None]:
    """Schedule one block in a worker process.

    Returns the block's outcome plus -- when observability is on --
    its trace entries and metrics dump for the parent to absorb/merge
    in program order.
    """
    cache = _WORKER_STATE["cache"]
    tracer = (Tracer(worker=os.getpid()) if _WORKER_STATE["trace"]
              else None)
    registry = MetricsRegistry() if _WORKER_STATE["metrics"] else None
    hits0 = cache.hits if cache is not None else 0
    misses0 = cache.misses if cache is not None else 0
    outcome = schedule_block_resilient(
        block, _WORKER_STATE["machine"], _WORKER_STATE["chain"],
        budget=_WORKER_STATE["budget"],
        verify=_WORKER_STATE["verify"], cache=cache,
        tracer=tracer, metrics=registry,
        skip_builders=skip_builders, on_attempt=on_attempt)
    if registry is not None and cache is not None:
        record_cache(registry, cache.hits - hits0,
                     cache.misses - misses0)
    obs = None
    if tracer is not None or registry is not None:
        obs = (tracer.entries if tracer is not None else [],
               registry.dump() if registry is not None else [])
    return outcome, obs


def _worker_main(conn: Connection, init_args: tuple) -> None:
    """Supervised worker loop: recv task, heartbeat, compute, reply.

    Chaos directives ride on the task message and are executed here --
    ``exit``/``kill`` die *after* the ``start`` heartbeat so the
    supervisor's attribution is exercised exactly like a real
    mid-block crash.
    """
    _init_worker(*init_args)
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        if message[0] == "stop":
            conn.close()
            return
        _, index, block, attempt, skip, inject = message
        try:
            conn.send(("start", index, attempt))
            if inject is not None:
                kind = inject[0]
                if kind == "delay":
                    time.sleep(inject[1])
                elif kind == "exit":
                    os._exit(inject[1])
                elif kind == "kill":
                    os.kill(os.getpid(), signal.SIGKILL)
                elif kind == "corrupt":
                    block = None
                elif kind == "alloc":
                    # Exercises the memory ceiling: under RLIMIT_AS
                    # this raises MemoryError (attributed as an "oom"
                    # crash); without a ceiling it is a real -- brief
                    # -- allocation.
                    _hog = bytearray(inject[1])
                    del _hog
            if block is None or not isinstance(block, BasicBlock):
                conn.send(("error", index,
                           "corrupted task payload: expected a "
                           "BasicBlock"))
                continue
            result = _run_block(
                block, skip_builders=skip,
                on_attempt=lambda name: conn.send(
                    ("attempt", index, name)))
            conn.send(("done", index) + result)
        except (EOFError, OSError, BrokenPipeError):
            return
        except BaseException as exc:  # noqa: BLE001 - isolation net
            try:
                conn.send(("error", index,
                           f"{type(exc).__name__}: {exc}"))
            except (OSError, BrokenPipeError):
                return


# -- retry and breaker policies --------------------------------------------


@dataclass(frozen=True)
class RetryPolicy:
    """Backoff/retry budget for crashed or poisoned blocks.

    Attributes:
        max_retries: failed attempts a block may accumulate before it
            is quarantined (the first attempt is free: ``max_retries=3``
            allows 4 runs total).
        base_delay: backoff before the first retry, in seconds.
        max_delay: backoff ceiling, in seconds.
        jitter: maximum extra fraction added to each delay (0.5 =
            up to +50%).  The jitter amount is drawn from a generator
            seeded per (block, attempt), so the *chosen* delays are
            reproducible even though their wall-clock effect is not.
        seed: jitter seed.
    """

    max_retries: int = 3
    base_delay: float = 0.05
    max_delay: float = 2.0
    jitter: float = 0.5
    seed: int = 0

    def delay(self, index: int, attempt: int) -> float:
        """Backoff before retry number ``attempt`` of block ``index``."""
        base = min(self.max_delay,
                   self.base_delay * (2 ** max(0, attempt - 1)))
        rng = random.Random(f"repro-retry:{self.seed}:{index}:{attempt}")
        return base * (1.0 + rng.uniform(0.0, self.jitter))


#: circuit breaker states
BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half-open"

#: numeric encoding of breaker states for the state gauge
_BREAKER_STATE_CODE = {BREAKER_CLOSED: 0, BREAKER_HALF_OPEN: 1,
                       BREAKER_OPEN: 2}


class CircuitBreaker:
    """Per-builder circuit breaker layered on the fallback chain.

    ``threshold`` consecutive crash/timeout failures in one builder
    open its breaker: subsequent blocks skip that chain entry (a
    recorded ``breaker-open`` attempt) and route straight to the next
    one, instead of burning a full watchdog budget per block on a
    builder that is known to be misbehaving.  After ``cooldown``
    skipped blocks the breaker goes half-open and lets exactly one
    probe attempt through: success closes it, failure re-opens it for
    another cooldown.

    Breaker routing is outcome-changing by design (a skipped builder
    is an attempt that never ran), so it is opt-in everywhere; with
    ``jobs > 1`` the open/close timing additionally depends on
    completion order and is therefore load-sensitive.
    """

    def __init__(self, threshold: int = 3, cooldown: int = 8,
                 tracer: Tracer | None = None,
                 metrics: MetricsRegistry | None = None) -> None:
        if threshold < 1:
            raise ReproError(
                f"breaker threshold must be >= 1, got {threshold}")
        if cooldown < 1:
            raise ReproError(
                f"breaker cooldown must be >= 1, got {cooldown}")
        self.threshold = threshold
        self.cooldown = cooldown
        self.tracer = tracer or NULL_TRACER
        self.metrics = metrics
        self._state: dict[str, str] = {}
        self._consecutive: dict[str, int] = {}
        self._cooldown_left: dict[str, int] = {}
        self._probing: set[str] = set()
        #: (builder, to_state) transition log, in order
        self.transitions: list[tuple[str, str]] = []

    def state(self, builder: str) -> str:
        """The builder's current state name."""
        return self._state.get(builder, BREAKER_CLOSED)

    def _transition(self, builder: str, to_state: str) -> None:
        self._state[builder] = to_state
        self.transitions.append((builder, to_state))
        self.tracer.event("breaker", builder=builder, state=to_state)
        record_breaker_transition(self.metrics, builder, to_state,
                                  _BREAKER_STATE_CODE[to_state])

    def allow(self, builder: str) -> bool:
        """May the next block try this builder?  (Mutates state: an
        open breaker counts the skip against its cooldown, and the
        call that ends the cooldown *is* the half-open probe.)"""
        state = self.state(builder)
        if state == BREAKER_CLOSED:
            return True
        if state == BREAKER_OPEN:
            left = self._cooldown_left.get(builder, self.cooldown) - 1
            self._cooldown_left[builder] = left
            if left > 0:
                return False
            self._transition(builder, BREAKER_HALF_OPEN)
            self._probing.add(builder)
            return True
        # half-open: one probe in flight at a time
        if builder in self._probing:
            return False
        self._probing.add(builder)
        return True

    def record_failure(self, builder: str) -> None:
        """A crash or watchdog timeout attributed to this builder."""
        self._probing.discard(builder)
        if self.state(builder) == BREAKER_HALF_OPEN:
            self._cooldown_left[builder] = self.cooldown
            self._transition(builder, BREAKER_OPEN)
            return
        count = self._consecutive.get(builder, 0) + 1
        self._consecutive[builder] = count
        if self.state(builder) == BREAKER_CLOSED \
                and count >= self.threshold:
            self._cooldown_left[builder] = self.cooldown
            self._transition(builder, BREAKER_OPEN)

    def record_success(self, builder: str) -> None:
        """An accepted attempt on this builder."""
        self._probing.discard(builder)
        self._consecutive[builder] = 0
        if self.state(builder) == BREAKER_HALF_OPEN:
            self._transition(builder, BREAKER_CLOSED)

    def observe_attempts(self, attempts: Sequence[Attempt]) -> None:
        """Feed a completed outcome's attempt records into the breaker
        (how the supervisor applies worker-side verdicts parent-side)."""
        for attempt in attempts:
            if attempt.builder in ("original-order", "worker"):
                continue
            if attempt.stage == "timeout":
                self.record_failure(attempt.builder)
            elif attempt.stage == "ok":
                self.record_success(attempt.builder)


# -- quarantine ------------------------------------------------------------


def write_quarantine_reproducer(block: BasicBlock,
                                machine: MachineModel,
                                case: str, reason: str,
                                out_dir: str) -> str:
    """Write a (minimized, when possible) reproducer ``.s`` file.

    The in-process differential oracle
    (:func:`repro.runner.fuzz.check_block`) is tried first: if the
    block also fails in-process, the failure is minimized with the
    fuzz harness's delta-debugging loop before writing.  A block that
    only dies under process isolation (a real segfault/OOM, or chaos
    injection) is written whole, with the crash history in the header.
    """
    from repro.runner.fuzz import check_block, minimize_block
    minimized = block
    description = None
    try:
        description = check_block(block, machine)
    except Exception:  # noqa: BLE001 - oracle is best-effort here
        description = None
    if description is not None:
        minimized = minimize_block(
            block, lambda b: check_block(b, machine) is not None)
        description = check_block(minimized, machine) or description
    else:
        description = (f"{reason} (not reproducible in-process; "
                       f"crash requires worker isolation)")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"quarantine-{case}.s")
    lines = [
        "! repro quarantine reproducer",
        f"! case: {case}",
        f"! failure: {description}",
        f"! minimized: {len(block.instructions)} -> "
        f"{len(minimized.instructions)} instructions",
    ]
    lines.extend(f"\t{ins.render()}" for ins in minimized.instructions)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
    return path


def quarantine_outcome(block: BasicBlock, machine: MachineModel,
                       failures: Sequence[tuple[str, str]],
                       reproducer: str | None) -> BlockOutcome:
    """The degraded, journaled verdict for a quarantined block."""
    attempts = [Attempt("worker", kind, error) for kind, error in failures]
    attempts.append(Attempt("original-order", "quarantined"))
    makespan = degraded_timing(block, machine)
    return BlockOutcome(
        index=block.index, label=block.label, builder=None,
        order=list(range(len(block.instructions))),
        makespan=makespan, original_makespan=makespan,
        attempts=attempts, quarantined=True, reproducer=reproducer)


# -- the supervised pool ---------------------------------------------------


@dataclass
class SupervisorStats:
    """What the supervisor observed (volatile -- never affects
    outcomes of healthy blocks).

    Attributes:
        crashes: worker deaths attributed to a running task.
        crash_kinds: crash count by kind ("exit N", "signal N",
            "hang", "task-error").
        restarts: replacement workers spawned.
        retries: block re-enqueues after a failure.
        quarantined: blocks that exhausted their retry budget.
    """

    crashes: int = 0
    crash_kinds: dict[str, int] = field(default_factory=dict)
    restarts: int = 0
    retries: int = 0
    quarantined: int = 0


class _Worker:
    """One supervised worker process and its bookkeeping."""

    __slots__ = ("process", "conn", "task", "dispatched_at",
                 "attempt_builder", "hang_killed")

    def __init__(self, process: multiprocessing.Process,
                 conn: Connection) -> None:
        self.process = process
        self.conn = conn
        self.task: tuple[int, int] | None = None  # (index, attempt)
        self.dispatched_at: float = 0.0
        self.attempt_builder: str | None = None
        self.hang_killed = False


class SupervisedPool:
    """Crash-isolated worker pool with retry, quarantine, and breaker.

    The pool is driven from :func:`repro.runner.batch.run_batch`'s
    program-order consumption loop: :meth:`result` pumps the event
    loop (dispatching queued tasks, draining worker messages, handling
    crashes, hangs, backoff expiries) until the requested block's
    verdict is available.  Completion order never leaks into results:
    the caller asks for blocks in program order and gets byte-stable
    outcomes for every healthy block.

    Args:
        blocks: the un-journaled blocks to schedule.
        machine: timing model (also used parent-side for the
            quarantine verdict's degraded makespan).
        chain_names: builder chain for the workers.
        budget: per-attempt watchdog limits, forwarded to workers.
        verify / use_cache: worker configuration.
        jobs: worker process count (capped at ``len(blocks)``).
        retry: crash retry/backoff policy (default
            :class:`RetryPolicy`).
        chaos: optional chaos plan -- any object with a
            ``plan(index, attempt)`` method returning None or an
            injection directive tuple
            (:class:`repro.runner.chaos.ChaosConfig`).
        task_timeout: seconds of silence after dispatch before a
            worker is presumed hung and SIGKILLed (None = wait
            forever).
        quarantine_dir: directory for reproducer ``.s`` files (None =
            quarantine without writing a file).
        breaker: optional parent-side :class:`CircuitBreaker`.
        tracer: parent tracer for supervision events (restarts,
            retries, quarantines); when set, workers trace their
            blocks and the entries are returned through
            :meth:`result` for program-order absorption.
        metrics: parent registry for supervision counters; when set,
            workers record block metrics and return their dumps
            through :meth:`result` for program-order merging.
        mem_limit_mb: opt-in per-worker address-space ceiling in MiB
            (``RLIMIT_AS`` in the worker bootstrap).  A worker whose
            allocation exceeds it fails with a ``MemoryError``
            attributed to its block and builder (crash kind
            ``"oom"``), instead of an anonymous kernel SIGKILL.
    """

    def __init__(self, blocks: Sequence[BasicBlock],
                 machine: MachineModel,
                 chain_names: tuple[str, ...],
                 budget: Budget | None,
                 verify: bool,
                 use_cache: bool,
                 jobs: int,
                 retry: RetryPolicy | None = None,
                 chaos: object | None = None,
                 task_timeout: float | None = None,
                 quarantine_dir: str | None = None,
                 breaker: CircuitBreaker | None = None,
                 tracer: Tracer | None = None,
                 metrics: MetricsRegistry | None = None,
                 mem_limit_mb: int | None = None) -> None:
        self._machine = machine
        self._chain_names = chain_names
        self._init_args = (machine, chain_names, budget, verify,
                           use_cache, bool(tracer), metrics is not None,
                           mem_limit_mb)
        self._retry = retry or RetryPolicy()
        self._chaos = chaos
        self._task_timeout = task_timeout
        self._quarantine_dir = quarantine_dir
        self._breaker = breaker
        self._tracer = tracer or NULL_TRACER
        self._metrics = metrics
        self._blocks = {b.index: b for b in blocks}
        #: (ready_at, index, attempt) -- attempt = prior failures
        self._queue: list[tuple[float, int, int]] = [
            (0.0, b.index, 0) for b in blocks]
        self._results: dict[int, tuple] = {}
        self._failures: dict[int, list[tuple[str, str]]] = {}
        self._workers: list[_Worker] = []
        self._jobs = max(1, min(jobs, len(self._blocks) or 1))
        self._mp = multiprocessing.get_context()
        self.stats = SupervisorStats()
        for _ in range(self._jobs):
            self._spawn()

    def __contains__(self, index: int) -> bool:
        return index in self._blocks

    # -- lifecycle ---------------------------------------------------------

    def _spawn(self) -> None:
        parent_conn, child_conn = self._mp.Pipe(duplex=True)
        process = self._mp.Process(
            target=_worker_main, args=(child_conn, self._init_args),
            daemon=True, name="repro-supervised-worker")
        process.start()
        child_conn.close()
        self._workers.append(_Worker(process, parent_conn))

    def shutdown(self, kill: bool = False) -> None:
        """Stop every worker (politely unless ``kill``)."""
        for worker in self._workers:
            if not kill and worker.process.is_alive():
                try:
                    worker.conn.send(("stop",))
                except (OSError, BrokenPipeError):
                    pass
        for worker in self._workers:
            if kill and worker.process.is_alive():
                worker.process.kill()
            worker.process.join(timeout=2.0)
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join(timeout=2.0)
            worker.conn.close()
        self._workers.clear()

    # -- the event loop ----------------------------------------------------

    def result(self, index: int) -> tuple:
        """Block until block ``index`` has a verdict; return it.

        Returns ``(outcome, obs)``: a healthy block's outcome with its
        worker trace entries and metrics dump (``obs`` is None when
        observability is off), or a quarantined block's parent-side
        degraded verdict with ``obs`` None.
        """
        while index not in self._results:
            if not self._outstanding():
                raise ReproError(
                    f"supervised pool lost track of block {index} "
                    f"(no queued or running work remains)")
            self._pump()
        return self._results.pop(index)

    def _outstanding(self) -> bool:
        return bool(self._queue) or any(
            w.task is not None for w in self._workers)

    def _pump(self) -> None:
        self._dispatch()
        objects = []
        for worker in self._workers:
            objects.append(worker.conn)
            objects.append(worker.process.sentinel)
        mp_wait(objects, timeout=self._wait_timeout())
        for worker in list(self._workers):
            conn_broken = self._drain(worker)
            if conn_broken or not worker.process.is_alive():
                self._reap(worker)
        self._check_hangs()

    def _drain(self, worker: _Worker) -> bool:
        """Process every buffered message; True if the pipe broke."""
        while True:
            try:
                if not worker.conn.poll():
                    return False
                message = worker.conn.recv()
            except (EOFError, OSError):
                return True
            self._handle_message(worker, message)

    def _dispatch(self) -> None:
        now = time.monotonic()
        idle = [w for w in self._workers
                if w.task is None and w.process.is_alive()]
        self._queue.sort()
        while idle and self._queue and self._queue[0][0] <= now:
            ready_at, index, attempt = self._queue.pop(0)
            worker = idle.pop(0)
            block = self._blocks[index]
            inject = (self._chaos.plan(index, attempt)
                      if self._chaos is not None else None)
            skip: tuple[str, ...] = ()
            if self._breaker is not None:
                skip = tuple(name for name in self._chain_names
                             if not self._breaker.allow(name))
            payload = None if (inject is not None
                               and inject[0] == "corrupt") else block
            try:
                worker.conn.send(("task", index, payload, attempt,
                                  skip, inject))
            except (OSError, BrokenPipeError):
                # Worker died between tasks; the reaper will requeue.
                self._queue.append((ready_at, index, attempt))
                continue
            worker.task = (index, attempt)
            worker.dispatched_at = now
            worker.attempt_builder = None

    def _wait_timeout(self) -> float | None:
        now = time.monotonic()
        timeouts: list[float] = []
        if self._queue and any(w.task is None for w in self._workers):
            timeouts.append(max(0.0, min(t for t, _, _ in self._queue)
                                 - now))
        if self._task_timeout is not None:
            for worker in self._workers:
                if worker.task is not None:
                    deadline = worker.dispatched_at + self._task_timeout
                    timeouts.append(max(0.0, deadline - now))
        if not timeouts:
            return None
        # Never spin: a zero timeout only when something is due now.
        return min(timeouts)

    def _handle_message(self, worker: _Worker, message: tuple) -> None:
        kind = message[0]
        if kind == "start":
            return  # liveness heartbeat; attribution is via .task
        if kind == "attempt":
            _, index, builder = message
            if worker.task is not None and worker.task[0] == index:
                worker.attempt_builder = builder
            return
        if kind == "done":
            _, index, outcome, obs = message
            if self._breaker is not None:
                self._breaker.observe_attempts(outcome.attempts)
            self._results[index] = (outcome, obs)
            worker.task = None
            worker.attempt_builder = None
            return
        if kind == "error":
            _, index, error = message
            if worker.task is not None and worker.task[0] == index:
                attempt = worker.task[1]
                builder = worker.attempt_builder
                worker.task = None
                worker.attempt_builder = None
                # A MemoryError under the opt-in RLIMIT_AS ceiling is
                # an OOM death with exact attribution -- distinct from
                # both an anonymous SIGKILL and a generic task error.
                failure_kind = ("oom" if error.startswith("MemoryError")
                                else "task-error")
                if failure_kind == "oom" and builder is not None \
                        and self._breaker is not None:
                    self._breaker.record_failure(builder)
                self._task_failed(index, attempt, failure_kind, error,
                                  builder=builder)
            return
        raise ReproError(
            f"unknown supervised-worker message {kind!r}")

    def _reap(self, worker: _Worker) -> None:
        """A worker process died: attribute, requeue/quarantine,
        restart."""
        # A completed result may still sit in the pipe (the worker
        # died -- or was hang-killed -- just after sending it); honor
        # it before attributing a crash.
        self._drain(worker)
        worker.process.join(timeout=2.0)
        exitcode = worker.process.exitcode
        if worker.hang_killed:
            kind = "hang"
        elif exitcode is not None and exitcode < 0:
            kind = f"signal {-exitcode}"
        else:
            kind = f"exit {exitcode}"
        self._workers.remove(worker)
        worker.conn.close()
        if worker.task is not None:
            index, attempt = worker.task
            builder = worker.attempt_builder
            error = (f"worker died ({kind}) while scheduling block "
                     f"{index}"
                     + (f" in builder {builder}" if builder else ""))
            self.stats.crashes += 1
            self.stats.crash_kinds[kind] = \
                self.stats.crash_kinds.get(kind, 0) + 1
            self._tracer.event("worker-crash", index=index, kind=kind,
                               builder=builder, attempt=attempt)
            record_worker_crash(self._metrics, kind)
            if builder is not None and self._breaker is not None:
                self._breaker.record_failure(builder)
            self._task_failed(index, attempt, kind, error,
                              builder=builder)
        if self._outstanding():
            self._spawn()
            self.stats.restarts += 1
            self._tracer.event("worker-restart")
            record_worker_restart(self._metrics)

    def _task_failed(self, index: int, attempt: int, kind: str,
                     error: str, builder: str | None) -> None:
        failures = self._failures.setdefault(index, [])
        failures.append((kind if kind in ("task-error", "oom")
                         else "crash", error))
        if kind in ("task-error", "oom"):
            # In-worker failures: the process survived, so _reap never
            # saw them -- account for them here.
            self.stats.crashes += 1
            self.stats.crash_kinds[kind] = \
                self.stats.crash_kinds.get(kind, 0) + 1
            self._tracer.event("task-error", index=index, kind=kind,
                               error=error)
            record_worker_crash(self._metrics, kind)
        retries = attempt + 1
        if retries > self._retry.max_retries:
            self._quarantine(index)
            return
        delay = self._retry.delay(index, retries)
        self.stats.retries += 1
        self._tracer.event("retry", index=index, attempt=retries,
                           delay=round(delay, 4))
        record_retry(self._metrics)
        self._queue.append((time.monotonic() + delay, index, retries))

    def _quarantine(self, index: int) -> None:
        block = self._blocks[index]
        failures = self._failures.get(index, [])
        reason = failures[-1][1] if failures else "unknown failure"
        reproducer = None
        if self._quarantine_dir is not None:
            reproducer = write_quarantine_reproducer(
                block, self._machine, str(index), reason,
                self._quarantine_dir)
        outcome = quarantine_outcome(block, self._machine, failures,
                                     reproducer)
        self.stats.quarantined += 1
        self._tracer.event("quarantined", index=index,
                           attempts=len(failures),
                           reproducer=reproducer)
        record_quarantine(self._metrics)
        self._results[index] = (outcome, None)

    def _check_hangs(self) -> None:
        if self._task_timeout is None:
            return
        now = time.monotonic()
        for worker in list(self._workers):
            if worker.task is None or not worker.process.is_alive():
                continue
            if now - worker.dispatched_at > self._task_timeout:
                worker.hang_killed = True
                worker.process.kill()
                worker.process.join(timeout=2.0)
                self._reap(worker)
