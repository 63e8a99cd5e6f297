"""Per-block builder fallback chains.

One bad block must not cost the run.  A block attempt can fail in any
stage -- construction (a builder bug, a work-budget trip), heuristics,
scheduling, verification, or the wall-clock watchdog -- and each
failure is a per-block :class:`~repro.errors.ReproError`.  The chain
retries the block with the next configured builder before degrading to
the original instruction order, and records *every* attempt so the
failure report shows exactly which builders were tried and why each
one was rejected.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.cfg.basic_block import BasicBlock
from repro.dag.builders import (
    BitmapBackwardBuilder,
    CompareAllBuilder,
    LandskovBuilder,
    PairwiseCache,
    TableBackwardBuilder,
    TableForwardBuilder,
)
from repro.dag.builders.base import BuildOutcome, BuildStats, DagBuilder
from repro.errors import BlockTimeout, ReproError
from repro.machine.model import MachineModel
from repro.obs.metrics import (
    MetricsRegistry,
    record_block_wall,
    record_build,
)
from repro.obs.trace import NULL_TRACER, NullTracer, Tracer
from repro.pipeline import schedule_attempt
from repro.runner.watchdog import Budget, BudgetedStats, run_with_watchdog
from repro.verify.checker import degraded_timing

#: builder name -> class, as exposed on the CLI
BUILDER_CLASSES: dict[str, type[DagBuilder]] = {
    "n2": CompareAllBuilder,
    "landskov": LandskovBuilder,
    "table-forward": TableForwardBuilder,
    "table-backward": TableBackwardBuilder,
    "bitmap-backward": BitmapBackwardBuilder,
}

#: the default chain: fastest exact builder first, the ``n**2``
#: reference last (it tolerates anything but costs the most work)
DEFAULT_CHAIN = ("bitmap-backward", "table-forward", "n2")


def resolve_chain(names: Sequence[str],
                  machine: MachineModel,
                  cache: PairwiseCache | None = None) -> list[
                      tuple[str, Callable[[], DagBuilder]]]:
    """Turn builder names into (name, factory) pairs.

    Args:
        names: builder names in fallback order.
        machine: timing model handed to every builder.
        cache: optional shared :class:`~repro.dag.builders.cache.\
PairwiseCache`; when set, every builder the chain constructs consults
            it, so a retry after a mid-chain failure replays the
            earlier builder's dependence work instead of redoing it.

    Raises:
        ReproError: for an unknown builder name or an empty chain.
    """
    if not names:
        raise ReproError("builder chain is empty")
    chain = []
    for name in names:
        cls = BUILDER_CLASSES.get(name)
        if cls is None:
            raise ReproError(
                f"unknown builder {name!r} in chain; "
                f"known: {sorted(BUILDER_CLASSES)}")
        chain.append(
            (name, lambda cls=cls: cls(machine, cache=cache)))
    return chain


@dataclass(frozen=True)
class Attempt:
    """One builder attempt on one block.

    Attributes:
        builder: chain entry name ("original-order" for the terminal
            degradation step).
        stage: where the attempt ended ("build", "heuristics",
            "schedule", "verify", "timeout", or "ok").
        error: the stringified error, None on success.
        work: budgeted construction work units this attempt spent
            (comparisons + table probes + alias checks + bitmap ops),
            or None when the attempt ran without a counting stats
            object.  Failed attempts keep their spent work here --
            each attempt counts against a *fresh* budget, so earlier
            failures neither double-charge a later attempt nor vanish
            from the accounting.
    """

    builder: str
    stage: str
    error: str | None = None
    work: int | None = None

    def to_record(self) -> dict:
        """JSON-serializable form (journal line fragment)."""
        return {"builder": self.builder, "stage": self.stage,
                "error": self.error, "work": self.work}

    @staticmethod
    def from_record(record: dict) -> "Attempt":
        return Attempt(record["builder"], record["stage"],
                       record.get("error"), record.get("work"))


@dataclass
class BlockOutcome:
    """The resilient runner's verdict on one block.

    Attributes:
        index: block index within the program.
        label: block label, if any.
        builder: name of the builder that produced the accepted
            schedule, or None when the block degraded to its original
            order.
        order: accepted schedule as block-relative instruction
            positions (the identity permutation when degraded).
        makespan: makespan of the accepted schedule.
        original_makespan: makespan of the original order.
        attempts: every attempt, in chain order (the last one is the
            accepted attempt or the degradation record).
        live: True when this outcome was computed in this run, False
            when it was replayed from a journal (replayed outcomes
            carry no DAG/work statistics).
        dag_stats_outcome: the accepted attempt's build outcome (DAG +
            work counters), present only on live, non-degraded
            outcomes.
        quarantined: True when the supervised pool exhausted the
            block's retry budget (repeated worker crashes or poisoned
            payloads) and excluded it from further scheduling.  A
            quarantined outcome is always degraded (identity order)
            and is journaled as a ``quarantined`` record so resumes
            replay it without re-triggering the crash.
        reproducer: path of the minimized reproducer ``.s`` file the
            quarantine step wrote, if any.
        wall_s: wall-clock seconds this block took end to end (all
            attempts included), or None on outcomes replayed from a
            journal written before the field existed.  Volatile: it is
            journaled (``repro report`` reconstructs Table 5-style
            timings from it) but excluded from the deterministic
            record used for run-identity comparisons.
    """

    index: int
    label: str | None
    builder: str | None
    order: list[int]
    makespan: int
    original_makespan: int
    attempts: list[Attempt] = field(default_factory=list)
    live: bool = True
    dag_stats_outcome: BuildOutcome | None = None
    wall_s: float | None = None
    quarantined: bool = False
    reproducer: str | None = None

    @property
    def degraded(self) -> bool:
        """True when no chain builder produced an accepted schedule."""
        return self.builder is None

    @property
    def n_attempts(self) -> int:
        """Builder attempts this block took (degradation included)."""
        return len(self.attempts)

    def to_record(self, volatile: bool = False) -> dict:
        """JSON-serializable journal line (statistics-bearing fields
        only; the DAG itself is recomputable from the input).

        Args:
            volatile: include host-dependent fields (``wall_s``).  The
                journal passes True; determinism comparisons (bench,
                jobs-N-vs-1) use the default deterministic record.
        """
        record = {
            "type": "quarantined" if self.quarantined else "block",
            "index": self.index,
            "label": self.label,
            "builder": self.builder,
            "order": list(self.order),
            "makespan": self.makespan,
            "original_makespan": self.original_makespan,
            "n_attempts": len(self.attempts),
            "attempts": [a.to_record() for a in self.attempts],
        }
        if self.quarantined:
            record["reproducer"] = self.reproducer
        if volatile:
            record["wall_s"] = self.wall_s
        return record

    @staticmethod
    def from_record(record: dict) -> "BlockOutcome":
        return BlockOutcome(
            index=record["index"],
            label=record.get("label"),
            builder=record.get("builder"),
            order=list(record["order"]),
            makespan=record["makespan"],
            original_makespan=record["original_makespan"],
            attempts=[Attempt.from_record(a)
                      for a in record.get("attempts", [])],
            live=False,
            wall_s=record.get("wall_s"),
            quarantined=record.get("type") == "quarantined",
            reproducer=record.get("reproducer"))


def schedule_block_resilient(
        block: BasicBlock,
        machine: MachineModel,
        chain: Sequence[tuple[str, Callable[[], DagBuilder]]],
        budget: Budget | None = None,
        priority: Callable | None = None,
        verify: bool = False,
        cache: PairwiseCache | None = None,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
        breaker: object | None = None,
        skip_builders: Sequence[str] = (),
        on_attempt: Callable[[str], None] | None = None) -> BlockOutcome:
    """Schedule one block, falling back through the builder chain.

    Each chain entry gets a full attempt -- construction (under the
    work budget), the intermediate heuristic pass
    (:func:`~repro.heuristics.passes.backward_pass`), forward
    scheduling, and optional independent verification -- wrapped in
    the wall-clock watchdog.  The first attempt that survives is
    accepted; if none does, the block degrades to its original order
    (always correct, never faster) with every failure recorded.

    Args:
        block: the basic block (non-empty).
        machine: timing model.
        chain: (name, factory) pairs from :func:`resolve_chain`; tests
            may inject arbitrary factories (e.g. a sleeping builder).
        budget: per-attempt watchdog limits (None = unlimited).
        priority: scheduling priority (default: section 6 winnowing).
        verify: independently verify the accepted schedule with
            :func:`repro.verify.checker.verify_schedule`.
        cache: optional pairwise-dependence cache shared across
            attempts (and with the verifier), so a fallback retry
            replays the failed builder's dependence work.
        tracer: optional :class:`~repro.obs.trace.Tracer`; records a
            ``block`` span with one ``attempt`` span (and
            build/heuristics/schedule stage spans) per chain entry,
            plus cache hit/miss, budget-trip, fallback, and
            degradation events.  Observation only -- outcomes are
            byte-identical with tracing on or off.
        metrics: optional :class:`~repro.obs.metrics.MetricsRegistry`;
            records the accepted attempt's Table 4/5 work counters
            (per builder) and the block's wall-clock spend.  Outcome-
            level aggregates (attempt/degradation counts, makespans)
            are recorded by :func:`repro.runner.batch.run_batch`,
            which also covers journal-replayed blocks.
        breaker: optional per-builder circuit breaker
            (:class:`~repro.runner.supervisor.CircuitBreaker`).  A
            chain entry whose breaker is open is skipped (recorded as
            a ``breaker-open`` attempt); watchdog timeouts feed the
            breaker's failure count and accepted attempts close it.
            Outcome-changing by design, so opt-in.
        skip_builders: chain entries to skip up front, recorded as
            ``breaker-open`` attempts -- how the supervised pool
            forwards its parent-side breaker verdicts into a worker
            process that cannot share the breaker object.
        on_attempt: per-attempt heartbeat callback invoked with the
            chain entry's name just before the attempt starts.  The
            supervised pool uses it to attribute a worker crash to the
            builder that was live when the process died.

    Returns:
        The accepted or degraded :class:`BlockOutcome`.
    """
    tracer = tracer or NULL_TRACER
    label = block.label if block.label else str(block.index)
    attempts: list[Attempt] = []
    t_start = time.perf_counter()

    def attempt(name: str, factory: Callable[[], DagBuilder],
                stats: BuildStats, atracer: Tracer) -> tuple:
        with atracer.span("attempt", builder=name) as span_attrs:
            try:
                result = schedule_attempt(
                    block, machine, factory, name, priority=priority,
                    verify=verify, cache=cache, stats=stats,
                    tracer=atracer, metrics=metrics)
            except BlockTimeout:
                span_attrs["stage"] = "timeout"
                raise
            except ReproError as exc:
                span_attrs["stage"] = exc.stage  # type: ignore[attr-defined]
                raise
            span_attrs["stage"] = "ok"
            return result

    def finish(outcome: BlockOutcome) -> BlockOutcome:
        outcome.wall_s = time.perf_counter() - t_start
        record_block_wall(metrics, outcome.wall_s)
        return outcome

    with tracer.span("block", index=block.index, label=block.label,
                     size=len(block.instructions)) as block_attrs:
        for name, factory in chain:
            if name in skip_builders or (
                    breaker is not None and not breaker.allow(name)):
                tracer.event("breaker-skip", builder=name)
                attempts.append(Attempt(name, "breaker-open",
                                        "circuit breaker open"))
                continue
            if on_attempt is not None:
                on_attempt(name)
            # A fresh counter per attempt: a failed attempt's spent
            # work must neither count against the next builder's budget
            # (double-charging) nor disappear -- it is snapshotted onto
            # the Attempt record below.  Only a work budget needs the
            # auditing subclass; a plain counter is cheaper.
            stats = (BudgetedStats(budget.max_work, block=label)
                     if budget is not None and budget.max_work is not None
                     else BuildStats())
            # Under a wall-clock budget the attempt runs on a watchdog
            # thread that may outlive its deadline; give it a private
            # tracer and absorb only completed attempts, so an
            # abandoned thread can never corrupt the main trace.
            threaded = (budget is not None
                        and budget.wall_clock is not None)
            atracer = (Tracer(worker=tracer.worker)
                       if tracer and threaded else tracer)
            try:
                try:
                    builder, outcome, sched, original = \
                        run_with_watchdog(
                            lambda: attempt(name, factory, stats,
                                            atracer),
                            budget, block=label)
                finally:
                    if atracer is not tracer and not isinstance(
                            atracer, NullTracer):
                        tracer.absorb(list(atracer.entries),
                                      parent=tracer.current_span)
            except BlockTimeout as exc:
                tracer.event("budget-trip", builder=name,
                             budget=getattr(exc, "budget", None),
                             limit=getattr(exc, "limit", None))
                attempts.append(Attempt(name, "timeout", str(exc),
                                        work=stats.work))
                if breaker is not None:
                    breaker.record_failure(name)
                continue
            except ReproError as exc:
                tracer.event("fallback", builder=name,
                             stage=getattr(exc, "stage", "build"))
                attempts.append(Attempt(
                    name, getattr(exc, "stage", "build"), str(exc),
                    work=stats.work))
                continue
            attempts.append(Attempt(name, "ok", work=stats.work))
            if breaker is not None:
                breaker.record_success(name)
            record_build(metrics, name, stats, builder.words_touched)
            block_attrs.update(builder=name, degraded=False,
                               makespan=sched.timing.makespan)
            return finish(BlockOutcome(
                index=block.index, label=block.label, builder=name,
                order=[node.id for node in sched.order],
                makespan=sched.timing.makespan,
                original_makespan=original.makespan,
                attempts=attempts, dag_stats_outcome=outcome))

        # Terminal degradation: the original order is always a correct
        # schedule of itself.
        fallback = degraded_timing(block, machine)
        attempts.append(Attempt("original-order", "ok"))
        tracer.event("degraded", index=block.index)
        block_attrs.update(builder=None, degraded=True,
                           makespan=fallback)
        return finish(BlockOutcome(
            index=block.index, label=block.label, builder=None,
            order=list(range(len(block.instructions))),
            makespan=fallback, original_makespan=fallback,
            attempts=attempts))
