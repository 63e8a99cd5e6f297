"""The section 6 per-block attempt: build, heuristic pass, schedule.

The section 6 comparison pairs each DAG construction algorithm "with a
simple forward scheduling pass", using three backward static
heuristics: *max path to leaf*, *max delay to leaf*, and *max delay to
child*.  Each approach makes two passes over the instructions (DAG
construction + intermediate heuristic pass) and then one scheduling
pass over the DAG.  :func:`schedule_attempt` is that sequence for one
block, written once; the resilient runner
(:func:`repro.runner.fallback.schedule_block_resilient`) wraps it in
the watchdog and the builder fallback chain, and
:func:`repro.runner.batch.run_batch` aggregates the Tables 4 and 5
statistics over a whole benchmark.
"""

from __future__ import annotations

from typing import Callable

from repro.cfg.basic_block import BasicBlock
from repro.dag.builders.base import BuildOutcome, BuildStats, DagBuilder
from repro.dag.builders.cache import PairwiseCache
from repro.errors import ReproError
from repro.heuristics.passes import backward_pass
from repro.machine.model import MachineModel
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER, Tracer
from repro.scheduling.list_scheduler import ScheduleResult, schedule_forward
from repro.scheduling.priority import winnowing
from repro.scheduling.timing import ScheduleTiming, simulate, verify_order
from repro.verify.checker import verify_schedule

#: The section 6 priority: max path to leaf, then max delay to leaf,
#: then max delay to child (an ``a``-class value maintained by add_arc).
SECTION6_PRIORITY = winnowing(
    "max_path_to_leaf",
    "max_delay_to_leaf",
    "max_delay_to_child",
)


def schedule_attempt(block: BasicBlock, machine: MachineModel,
                     factory: Callable[[], DagBuilder], name: str,
                     priority: Callable | None = None,
                     verify: bool = False,
                     cache: PairwiseCache | None = None,
                     stats: BuildStats | None = None,
                     tracer: Tracer | None = None,
                     metrics: MetricsRegistry | None = None,
                     ) -> tuple[DagBuilder, BuildOutcome, ScheduleResult,
                                ScheduleTiming]:
    """Run the three section 6 steps on one block, raising on failure.

    Builds the DAG with a fresh builder from ``factory``, runs the
    intermediate backward heuristic pass, list-schedules forward
    (checking the order against the DAG), simulates the original
    order for comparison, and optionally verifies the schedule
    independently.

    Args:
        block: the basic block (non-empty).
        machine: timing model.
        factory: zero-argument callable producing a fresh builder.  It
            is called here, so a factory that raises fails the
            ``build`` stage like a builder that raises.
        name: the builder's chain name: the ``build`` span attribute,
            the cache events' ``builder``, and the verifier's
            ``approach`` (it appears in verification error strings).
        priority: scheduling priority (default: section 6 winnowing).
        verify: check the schedule with
            :func:`repro.verify.checker.verify_schedule` and raise its
            :class:`~repro.errors.VerificationError` on failure.
        cache: the pairwise cache the verifier's reference builds use.
        stats: work-counter sink handed to the build (a budgeted one
            trips the work watchdog); default a fresh
            :class:`~repro.dag.builders.base.BuildStats`.
        tracer: records ``build``/``heuristics``/``schedule`` spans and
            a ``cache-hit``/``cache-miss`` event when the builder has a
            cache.
        metrics: forwarded to the verifier.

    Returns:
        ``(builder, outcome, sched, original)``: the builder that ran,
        its build outcome, the forward schedule, and the original
        order's timing.

    Raises:
        ReproError: from any stage, tagged with a ``stage`` attribute
            ("build", "heuristics", "schedule" or "verify").
    """
    if priority is None:
        priority = SECTION6_PRIORITY
    tracer = tracer or NULL_TRACER
    stage = "build"
    try:
        builder = factory()
        builder_cache = getattr(builder, "cache", None)
        hits_before = (builder_cache.hits
                       if builder_cache is not None else None)
        with tracer.span("build", builder=name):
            outcome = builder.build(block, stats=stats)
        if hits_before is not None:
            tracer.event(
                "cache-hit" if builder_cache.hits > hits_before
                else "cache-miss", builder=name)
        stage = "heuristics"
        with tracer.span("heuristics"):
            backward_pass(outcome.dag, require_est=False)
        stage = "schedule"
        with tracer.span("schedule"):
            sched = schedule_forward(outcome.dag, machine, priority)
            verify_order(sched.order, outcome.dag)
            original = simulate(list(outcome.dag.real_nodes()), machine)
        if verify:
            stage = "verify"
            verify_schedule(
                block, sched.order, machine,
                claimed_issue_times=sched.timing.issue_times,
                approach=name, cache=cache, tracer=tracer,
                metrics=metrics).raise_if_failed()
    except ReproError as exc:
        exc.stage = stage  # type: ignore[attr-defined]
        raise
    return builder, outcome, sched, original
