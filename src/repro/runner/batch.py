"""The resilient batch runner: whole-program runs that survive bad blocks.

:func:`run_batch` is the one whole-benchmark loop.  Every block goes
through the section 6 attempt (:func:`repro.pipeline.schedule_attempt`)
under the watchdog and the builder fallback chain
(:mod:`repro.runner.fallback`), outcomes are journaled as the run
progresses (:mod:`repro.runner.journal`), and an interrupted run
resumes from the last completed block with bit-identical results.
The paper's Tables 4 and 5 run one builder as a one-entry chain
(:func:`repro.analysis.tables.table45_row`).

Two performance knobs ride on top without changing any outcome:

* ``cache`` -- a shared :class:`~repro.dag.builders.cache.PairwiseCache`
  so fallback retries, repeated block bodies, and post-schedule
  verification replay dependence work instead of re-deriving it;
* ``jobs`` -- block-parallel execution on a worker pool.  Blocks are
  independent (the chain, budget, and counters are all per-block), so
  the pool computes outcomes out of order while the parent consumes
  them *in program order* -- journal lines, the ``on_block`` callback,
  and every aggregate come out byte-identical to a serial run.

The parallel path runs on the crash-isolated
:class:`~repro.runner.supervisor.SupervisedPool`: a worker death
(segfault, OOM kill, ``os._exit``) costs one block attempt, not the
batch -- the block is retried with backoff and, past its retry budget,
quarantined with a ``quarantined`` journal record.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.cfg.basic_block import BasicBlock
from repro.dag.builders.base import BuildStats, DagBuilder
from repro.dag.builders.cache import PairwiseCache
from repro.dag.stats import BlockDagStats, ProgramDagStats
from repro.errors import BatchInterrupted, ReproError
from repro.machine.model import MachineModel
from repro.obs.metrics import (
    MetricsRegistry,
    record_block_structure,
    record_cache,
    record_outcome,
)
from repro.obs.trace import NULL_TRACER, Tracer
from repro.runner.fallback import (
    DEFAULT_CHAIN,
    BlockOutcome,
    resolve_chain,
    schedule_block_resilient,
)
from repro.runner.journal import RunJournal
from repro.runner.supervisor import (
    CircuitBreaker,
    RetryPolicy,
    SupervisedPool,
)
from repro.runner.watchdog import Budget


@dataclass
class BatchResult:
    """Aggregated outcome of a resilient batch run.

    Attributes:
        chain: builder chain names, in fallback order.
        outcomes: one :class:`BlockOutcome` per non-empty block, in
            program order (replayed journal outcomes included).
        n_blocks: blocks processed.
        n_instructions: instructions processed.
        n_replayed: blocks replayed from the journal instead of
            recomputed.
        total_makespan: summed accepted-schedule makespans (degraded
            blocks charged at original-order makespan).
        total_original_makespan: summed original-order makespans.
        degraded_makespan: the portion of both totals from degraded
            blocks.
        build_stats: summed construction work counters of live,
            non-degraded blocks (journal replays carry none).
        dag_stats: structural statistics of live, non-degraded blocks.
        supervisor_stats: the supervised pool's
            :class:`~repro.runner.supervisor.SupervisorStats`
            (crashes, restarts, retries, quarantines), or None when
            the run never started a supervised pool.
    """

    chain: tuple[str, ...]
    outcomes: list[BlockOutcome] = field(default_factory=list)
    n_blocks: int = 0
    n_instructions: int = 0
    n_replayed: int = 0
    total_makespan: int = 0
    total_original_makespan: int = 0
    degraded_makespan: int = 0
    build_stats: BuildStats = field(default_factory=BuildStats)
    dag_stats: ProgramDagStats = field(default_factory=ProgramDagStats)
    supervisor_stats: object | None = None

    @property
    def failures(self) -> list[BlockOutcome]:
        """The blocks that degraded to original order."""
        return [o for o in self.outcomes if o.degraded]

    @property
    def retried(self) -> list[BlockOutcome]:
        """The blocks that needed more than one attempt."""
        return [o for o in self.outcomes if len(o.attempts) > 1]

    @property
    def degraded_fraction(self) -> float:
        """Fraction of processed blocks that degraded."""
        if self.n_blocks == 0:
            return 0.0
        return len(self.failures) / self.n_blocks

    @property
    def speedup(self) -> float:
        """Original over scheduled makespan across the blocks that
        were actually scheduled (1.0 when every block degraded)."""
        scheduled = self.total_makespan - self.degraded_makespan
        if scheduled <= 0:
            return 1.0
        return ((self.total_original_makespan - self.degraded_makespan)
                / scheduled)

    @property
    def wasted_work(self) -> int:
        """Construction work units spent on attempts that were *not*
        accepted (failed chain entries).  Each attempt runs against a
        fresh budget, so this is pure bookkeeping -- it never counts
        against a later attempt -- but it quantifies what the fallback
        chain cost and what the pairwise cache saves on retries."""
        total = 0
        for outcome in self.outcomes:
            for attempt in outcome.attempts[:-1]:
                if attempt.work is not None:
                    total += attempt.work
        return total


def record_block(metrics: MetricsRegistry | None, block: BasicBlock,
                 outcome: BlockOutcome, replayed: bool = False) -> None:
    """Record one block's structure (Table 3) and outcome accounting.

    Every whole-run loop calls this once per block in program order,
    journal- or WAL-replayed blocks included (``replayed=True``), so
    the stable metrics do not depend on which loop ran the block.
    """
    if metrics is not None:
        record_block_structure(metrics, len(block.instructions),
                               len(block.unique_memory_exprs()))
        record_outcome(metrics, outcome, replayed=replayed)


def run_batch(blocks: Sequence[BasicBlock],
              machine: MachineModel,
              chain: Sequence[str] | None = None,
              chain_factories: Sequence[
                  tuple[str, Callable[[], DagBuilder]]] | None = None,
              budget: Budget | None = None,
              priority: Callable | None = None,
              verify: bool = False,
              journal: RunJournal | None = None,
              on_block: Callable[[BlockOutcome], None] | None = None,
              jobs: int = 1,
              cache: PairwiseCache | None = None,
              tracer: Tracer | None = None,
              metrics: MetricsRegistry | None = None,
              retry: RetryPolicy | None = None,
              chaos: object | None = None,
              task_timeout: float | None = None,
              quarantine_dir: str | None = None,
              breaker: CircuitBreaker | None = None,
              mem_limit_mb: int | None = None,
              ) -> BatchResult:
    """Run the resilient scheduling pipeline over ``blocks``.

    Per block: if the journal already records an outcome for its index
    the outcome is replayed verbatim (no recomputation -- this is what
    makes resume bit-identical); otherwise the block runs through the
    watchdog + fallback chain and the outcome is appended to the
    journal before the next block starts.

    Args:
        blocks: the program's basic blocks (window already applied).
        machine: timing model.
        chain: builder chain names (default
            :data:`~repro.runner.fallback.DEFAULT_CHAIN`).
        chain_factories: pre-resolved (name, factory) pairs overriding
            ``chain`` -- how :func:`repro.analysis.tables.table45_row`
            runs one builder as a one-entry chain, and the
            fault-injection hook tests use to plant a hanging or
            broken builder.
        budget: per-block watchdog limits.
        priority: scheduling priority (default: section 6 winnowing).
        verify: independently verify every accepted schedule.
        journal: an open :class:`RunJournal` for checkpoint/resume.
        on_block: progress callback invoked after every block outcome
            (replayed ones included), in program order.
        jobs: worker processes.  1 (the default) runs in-process;
            ``N > 1`` schedules un-journaled blocks on the supervised
            pool while preserving program-order journaling and
            callbacks, so the journal and every aggregate are
            byte-identical to ``jobs=1`` (work-budget trips included;
            wall-clock budgets remain load-sensitive either way).
            Incompatible with a custom ``priority`` or
            ``chain_factories`` (closures do not pickle); workers
            always use the section 6 defaults.
        cache: optional shared pairwise-dependence cache for the serial
            path; with ``jobs > 1`` pass ``cache`` as usual and each
            worker builds its own (caches hold live DAG nodes and
            cannot cross process boundaries -- only the *enabled* flag
            is forwarded).
        tracer: optional :class:`~repro.obs.trace.Tracer`; the run
            records a ``batch`` span with per-block spans under it.
            With ``jobs > 1`` each worker traces into its own tracer
            (track = worker pid) and the parent absorbs the entries in
            program order, so the structural span tree matches a
            serial run's.
        metrics: optional :class:`~repro.obs.metrics.MetricsRegistry`;
            block structure, outcome aggregates, and (via the fallback
            chain) builder work counters are recorded.  Worker
            registries are merged in program order; every merge is
            commutative, so the stable snapshot section is
            byte-identical to a ``jobs=1`` run's.
        retry: supervised-pool crash retry/backoff policy (default
            :class:`~repro.runner.supervisor.RetryPolicy`).
        chaos: optional fault-injection plan
            (:class:`~repro.runner.chaos.ChaosConfig`) forwarded to
            the supervised pool -- testing only.
        task_timeout: supervised-pool hang detector: seconds of
            worker silence after dispatch before the worker is
            presumed hung and killed (None = wait forever).
        quarantine_dir: directory for quarantine reproducer ``.s``
            files (None = quarantine without writing files).
        breaker: optional per-builder
            :class:`~repro.runner.supervisor.CircuitBreaker`.
            Outcome-changing (an open breaker skips chain entries),
            so opt-in.  Serial runs thread it straight through the
            fallback chain; supervised runs apply it parent-side and
            forward skip lists to workers.
        mem_limit_mb: opt-in per-worker address-space ceiling in MiB
            (``jobs > 1`` only; see
            :class:`~repro.runner.supervisor.SupervisedPool`).  OOM
            deaths then surface as attributed ``"oom"`` crashes
            instead of anonymous SIGKILLs.

    Returns:
        The aggregated :class:`BatchResult`.

    Raises:
        ReproError: for ``jobs < 1``, or ``jobs > 1`` combined with
            ``priority`` / ``chain_factories``.
        BatchInterrupted: on SIGINT/SIGTERM (as ``KeyboardInterrupt``)
            after the pool is shut down and the journal left flushed
            and resumable.
    """
    if jobs < 1:
        raise ReproError(f"jobs must be >= 1, got {jobs}")
    if jobs > 1 and (priority is not None or chain_factories is not None):
        raise ReproError(
            "jobs > 1 cannot ship a custom priority or injected chain "
            "factories to worker processes; use the defaults or jobs=1")
    chain_names = tuple(chain) if chain else DEFAULT_CHAIN
    if chain_factories is None:
        chain_factories = resolve_chain(chain_names, machine, cache=cache)
    tracer = tracer or NULL_TRACER
    result = BatchResult(chain=tuple(name for name, _ in chain_factories))
    completed = journal.completed if journal is not None else {}
    todo = [b for b in blocks if b.instructions]
    hits0 = cache.hits if cache is not None else 0
    misses0 = cache.misses if cache is not None else 0

    spool = None
    if jobs > 1:
        fresh = [b for b in todo if b.index not in completed]
        if fresh:
            spool = SupervisedPool(
                fresh, machine, chain_names, budget, verify,
                cache is not None, bool(tracer), metrics is not None,
                jobs, retry=retry, chaos=chaos,
                task_timeout=task_timeout,
                quarantine_dir=quarantine_dir, breaker=breaker,
                tracer=tracer, metrics=metrics,
                mem_limit_mb=mem_limit_mb)
    finished = False
    try:
        # The batch span's attrs deliberately exclude ``jobs``: the
        # structural span tree must be identical across worker counts.
        with tracer.span("batch", chain=",".join(result.chain),
                         n_blocks=len(todo)):
            for block in todo:
                outcome = completed.get(block.index)
                counters: tuple[int, ...] | None = None
                block_stats: BlockDagStats | None = None
                replayed = outcome is not None
                if outcome is not None:
                    result.n_replayed += 1
                    tracer.event("replayed", index=block.index)
                elif spool is not None and block.index in spool:
                    verdict = spool.result(block.index)
                    if verdict[0] == "quarantined":
                        outcome = verdict[1]
                    else:
                        _, record, counters, block_stats, obs = verdict
                        outcome = BlockOutcome.from_record(record)
                        if obs is not None:
                            entries, dumped = obs
                            if entries:
                                tracer.absorb(
                                    entries,
                                    parent=tracer.current_span)
                            if dumped and metrics is not None:
                                metrics.merge(dumped)
                    if journal is not None:
                        journal.append(outcome)
                else:
                    outcome = schedule_block_resilient(
                        block, machine, chain_factories, budget=budget,
                        priority=priority, verify=verify, cache=cache,
                        tracer=tracer, metrics=metrics, breaker=breaker)
                    if journal is not None:
                        journal.append(outcome)
                record_block(metrics, block, outcome, replayed=replayed)
                result.outcomes.append(outcome)
                result.n_blocks += 1
                result.n_instructions += len(block.instructions)
                result.total_makespan += outcome.makespan
                result.total_original_makespan += outcome.original_makespan
                if outcome.degraded:
                    result.degraded_makespan += outcome.makespan
                if outcome.live and outcome.dag_stats_outcome is not None:
                    result.build_stats.merge(
                        outcome.dag_stats_outcome.stats)
                    result.dag_stats.add_dag(outcome.dag_stats_outcome.dag)
                elif counters is not None:
                    result.build_stats.merge(BuildStats(*counters))
                    if block_stats is not None:
                        result.dag_stats.add(block_stats)
                if on_block is not None:
                    on_block(outcome)
        finished = True
    except KeyboardInterrupt:
        # The journal fsyncs every append, so everything consumed so
        # far is durable; shut the pool down (in the finally below)
        # and surface a typed, resumable interruption.
        path = journal.path if journal is not None else None
        raise BatchInterrupted(
            f"interrupted after {result.n_blocks} of {len(todo)} "
            f"blocks"
            + (f"; resume with --journal {path} --resume"
               if path is not None else ""),
            journal_path=path, n_completed=result.n_blocks,
            n_total=len(todo)) from None
    finally:
        if spool is not None:
            spool.shutdown(kill=not finished)
            result.supervisor_stats = spool.stats
    if metrics is not None and cache is not None:
        info = cache.info()
        record_cache(metrics, cache.hits - hits0,
                     cache.misses - misses0,
                     entries=info["entries"], recipes=info["recipes"])
    return result
