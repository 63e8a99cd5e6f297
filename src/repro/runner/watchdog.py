"""Per-block watchdog: wall-clock and work-counter budgets.

The section 6 experiment schedules whole benchmarks, fpppp's giant
block with an unbounded window included -- exactly where an ``n**2``
construction pass or a buggy heuristic can stall for minutes.  The
watchdog converts a runaway block into a typed
:class:`~repro.errors.BlockTimeout` the fallback chain can handle,
through two complementary mechanisms:

* a **work budget** enforced cooperatively: :class:`BudgetedStats` is
  a drop-in :class:`~repro.dag.builders.base.BuildStats` whose counter
  increments (comparisons, table probes, bitmap ops -- the "arcs
  considered" currency of Tables 4/5) raise once the configured total
  is exceeded.  Deterministic, zero-thread, and machine-independent,
  but only covers instrumented construction work;
* a **wall-clock budget** enforced preemptively:
  :func:`run_with_watchdog` executes the block attempt on a daemon
  worker thread and abandons it at the deadline.  This catches hangs
  anywhere in the construction/heuristic/scheduling chain, including
  ones that never touch a counter.  An optional absolute deadline
  (the serving daemon's request deadline) tightens it: each attempt
  gets the smaller of the per-attempt limit and the time left.

All limits are optional; a :class:`Budget` with none set runs the
attempt inline with no overhead.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, TypeVar

from repro.dag.builders.base import WORK_FIELDS, BuildStats
from repro.errors import BlockTimeout

T = TypeVar("T")


@dataclass(frozen=True)
class Budget:
    """Per-block resource limits.

    Attributes:
        wall_clock: seconds of real time per block attempt (None =
            unlimited).
        max_work: construction work units per block attempt -- the sum
            of comparisons, table probes, alias checks, and bitmap
            operations (None = unlimited).
        deadline: absolute :func:`time.monotonic` instant no attempt
            may run past (None = none).  ``CLOCK_MONOTONIC`` is
            system-wide, so supervised worker processes read the same
            instant as the process that set it.
    """

    wall_clock: float | None = None
    max_work: int | None = None
    deadline: float | None = None

    @property
    def unlimited(self) -> bool:
        """True when no limit is set."""
        return (self.wall_clock is None and self.max_work is None
                and self.deadline is None)


class BudgetedStats(BuildStats):
    """A :class:`BuildStats` that trips a work budget as it counts.

    Builders increment their counters on whatever stats object
    :meth:`~repro.dag.builders.base.DagBuilder.build` gives them; this
    subclass audits every increment and raises
    :class:`~repro.errors.BlockTimeout` the moment the summed
    construction work exceeds ``max_work``.  The check is exact and
    deterministic: the same block and budget always trip at the same
    counter value, which keeps journaled runs reproducible.
    """

    def __init__(self, max_work: int | None,
                 block: str | None = None) -> None:
        self._max_work = None  # disarm while the dataclass init runs
        self._block = block
        super().__init__()
        self._max_work = max_work

    def __setattr__(self, name: str, value: object) -> None:
        super().__setattr__(name, value)
        if name not in WORK_FIELDS:
            return
        limit = getattr(self, "_max_work", None)
        if limit is not None and self.work > limit:
            raise BlockTimeout(
                f"construction work budget exceeded "
                f"({self.work} > {limit} units)",
                block=self._block, budget="work", limit=limit,
                spent=self.work)


def run_with_watchdog(fn: Callable[[], T], budget: Budget | None,
                      block: str | None = None) -> T:
    """Run ``fn`` under ``budget``'s wall-clock limit.

    The limit is ``wall_clock`` capped at the time left before
    ``deadline``.  With neither set, ``fn`` runs inline.  Otherwise it
    runs on a daemon worker thread; if the limit passes the worker is
    abandoned (Python threads cannot be killed) and
    :class:`~repro.errors.BlockTimeout` is raised -- the abandoned
    thread can at worst waste CPU until its next budgeted counter
    increment trips, which is why the work budget and the wall clock
    are designed to be used together.  An attempt that starts with no
    time left raises at once, without starting a thread.

    Args:
        fn: zero-argument attempt (build + heuristics + schedule).
        budget: the limits; None, or neither wall_clock nor deadline,
            runs inline.
        block: label for the timeout diagnostic.

    Raises:
        BlockTimeout: when the limit passes.
        Exception: whatever ``fn`` raised, re-raised on this thread.
    """
    limit = budget.wall_clock if budget is not None else None
    if budget is not None and budget.deadline is not None:
        left = budget.deadline - time.monotonic()
        limit = left if limit is None else min(limit, left)
    if limit is None:
        return fn()
    if limit <= 0:
        raise BlockTimeout(
            "wall-clock budget exceeded (no time left for the attempt)",
            block=block, budget="wall-clock", limit=0.0, spent=0.0)
    box: dict[str, object] = {}

    def worker() -> None:
        try:
            box["result"] = fn()
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            box["error"] = exc

    start = time.monotonic()
    thread = threading.Thread(target=worker, daemon=True,
                              name=f"repro-block-{block}")
    thread.start()
    thread.join(limit)
    if thread.is_alive():
        raise BlockTimeout(
            f"wall-clock budget exceeded "
            f"({time.monotonic() - start:.2f}s > {limit:.2f}s)",
            block=block, budget="wall-clock", limit=limit,
            spent=time.monotonic() - start)
    if "error" in box:
        raise box["error"]  # type: ignore[misc]
    return box["result"]  # type: ignore[return-value]
