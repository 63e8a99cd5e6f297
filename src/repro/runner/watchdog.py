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
  ones that never touch a counter.

Both budgets are optional; a :class:`Budget` with neither set runs the
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
    """

    wall_clock: float | None = None
    max_work: int | None = None

    @property
    def unlimited(self) -> bool:
        """True when neither budget is set."""
        return self.wall_clock is None and self.max_work is None


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

    With no wall-clock budget, ``fn`` runs inline.  Otherwise it runs
    on a daemon worker thread; if the deadline passes the worker is
    abandoned (Python threads cannot be killed) and
    :class:`~repro.errors.BlockTimeout` is raised -- the abandoned
    thread can at worst waste CPU until its next budgeted counter
    increment trips, which is why the work budget and the wall clock
    are designed to be used together.

    Args:
        fn: zero-argument attempt (build + heuristics + schedule).
        budget: the limits; None or no wall_clock runs inline.
        block: label for the timeout diagnostic.

    Raises:
        BlockTimeout: when the deadline passes.
        Exception: whatever ``fn`` raised, re-raised on this thread.
    """
    if budget is None or budget.wall_clock is None:
        return fn()
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
    thread.join(budget.wall_clock)
    if thread.is_alive():
        raise BlockTimeout(
            f"wall-clock budget exceeded "
            f"({time.monotonic() - start:.2f}s > "
            f"{budget.wall_clock:.2f}s)",
            block=block, budget="wall-clock", limit=budget.wall_clock,
            spent=time.monotonic() - start)
    if "error" in box:
        raise box["error"]  # type: ignore[misc]
    return box["result"]  # type: ignore[return-value]
