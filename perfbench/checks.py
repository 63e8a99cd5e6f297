"""The independent output check, run outside every timed region.

A scheduled order is correct when it is a permutation of the block and
executing it from :func:`repro.verify.checker.neutral_state` reaches
the same final machine state as the original order.  The interpreter
refuses some blocks (a taken branch raises ``UnsupportedInstruction``);
those count as unchecked, and their share is printed with every run.
"""

from __future__ import annotations

from collections import Counter

from repro.interp import UnsupportedInstruction, execute
from repro.verify.checker import neutral_state

OK = "ok"
UNCHECKED = "unchecked"
FAILED = "failed"


def check_order(block, order: list[int]) -> str:
    """Verdict for one block's scheduled order (block positions)."""
    instructions = block.instructions
    if sorted(order) != list(range(len(instructions))):
        return FAILED
    scheduled = [instructions[position] for position in order]
    try:
        before = neutral_state(block)
        same = (execute(instructions, before).snapshot()
                == execute(scheduled, before).snapshot())
    except UnsupportedInstruction:
        return UNCHECKED
    return OK if same else FAILED


class CheckTally:
    """Verdict counts over many blocks."""

    def __init__(self) -> None:
        self.counts: Counter[str] = Counter()

    def add(self, verdict: str) -> None:
        self.counts[verdict] += 1

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    @property
    def failed(self) -> int:
        return self.counts[FAILED]

    def summary(self) -> str:
        total = self.total
        share = self.counts[UNCHECKED] / total if total else 0.0
        return (f"checked {self.counts[OK]} of {total} blocks, "
                f"{self.counts[UNCHECKED]} unchecked ({share:.1%}, "
                f"interpreter refused), {self.failed} failed")
