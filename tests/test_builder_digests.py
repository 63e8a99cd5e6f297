"""Identity digests for the table builders: arcs, counters, budget trips.

For every block of a fixed corpus, each table builder (table-forward,
table-backward, bitmap-backward with ``uses_first`` off and on) is run
under every :class:`~repro.isa.memory.AliasPolicy` and digested:

* the arcs in each node's out-list and in-list order (other end, dep,
  delay, resource) -- arc order decides bitmap suppression and merge
  order, so it is pinned, not just the arc set;
* the seven :class:`BuildStats` counters and ``words_touched``;
* the :class:`BlockTimeout` raised under ``BudgetedStats(max_work=...)``
  at 1/4, 1/2 and 3/4 of the block's unbudgeted work: its ``spent``
  and the counters at the trip, which pin the interleaving of counter
  increments and not just their totals.

The corpus is every kernel, a seeded set of fuzz blocks and one
1,000-instruction fpppp block.  The golden schedules pin
orders of small kernels only; these digests pin what the builders
construct and charge, so a speed-up of a builder sweep must leave
them unchanged.  Regenerate ``data/builder_digests.json`` only for a
deliberate change to the constructed arcs or counters:

    PYTHONPATH=src python -m tests.test_builder_digests --write
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from functools import lru_cache
from pathlib import Path

import pytest

from repro.asm import parse_asm
from repro.cfg import apply_window, partition_blocks
from repro.cfg.basic_block import BasicBlock
from repro.dag.builders import (
    BitmapBackwardBuilder,
    TableBackwardBuilder,
    TableForwardBuilder,
)
from repro.errors import BlockTimeout
from repro.isa.memory import AliasPolicy
from repro.machine import sparcstation2_like
from repro.runner.fuzz import layered_block, random_arc_block
from repro.runner.watchdog import BudgetedStats
from repro.workloads import generate_blocks, kernel_source, scaled_profile
from repro.workloads.kernels import KERNELS

DIGESTS = Path(__file__).parent / "data" / "builder_digests.json"

VARIANTS = {
    "table-forward": lambda m, p: TableForwardBuilder(m, p),
    "table-backward": lambda m, p: TableBackwardBuilder(m, p),
    "bitmap-backward": lambda m, p: BitmapBackwardBuilder(m, p),
    "bitmap-backward-uses-first":
        lambda m, p: BitmapBackwardBuilder(m, p, uses_first=True),
}

COUNTERS = ("comparisons", "table_probes", "alias_checks", "arcs_added",
            "arcs_merged", "arcs_suppressed", "bitmap_ops")


#: the one large block: the third fpppp-1000 window of the giant fpppp
#: block, whose memory expressions are interned as the sweep goes, so
#: the candidate index is extended between queries
FPPPP_WINDOW = "fpppp-1000:2"


@lru_cache(maxsize=1)
def small_blocks() -> dict[str, BasicBlock]:
    """Every kernel block and a seeded set of fuzz blocks, by name."""
    blocks: dict[str, BasicBlock] = {}
    for name in KERNELS:
        for k, block in enumerate(partition_blocks(
                parse_asm(kernel_source(name)))):
            blocks[f"kernel:{name}:{k}"] = block
    rng = random.Random(2501)
    for k in range(12):
        blocks[f"layered:{k}"] = layered_block(rng, f"d{k}", max_size=40)
        blocks[f"random-arc:{k}"] = random_arc_block(rng, f"d{k}",
                                                     max_size=40)
    return blocks


@lru_cache(maxsize=1)
def fpppp_window() -> BasicBlock:
    # Generated on first use, not at collection, so collecting the
    # suite does not build the 11,750-instruction block.
    giant = max(generate_blocks(scaled_profile("fpppp", 0.01)),
                key=lambda b: b.size)
    return apply_window([giant], 1000)[2]


def corpus_names() -> list[str]:
    return sorted([*small_blocks(), FPPPP_WINDOW])


def corpus_block(name: str) -> BasicBlock:
    return fpppp_window() if name == FPPPP_WINDOW else small_blocks()[name]


def _arc_lines(dag) -> list[str]:
    lines = []
    for node in dag.nodes:
        for arc in node.out_arcs:
            lines.append(f"{node.id}>{arc.child.id} {arc.dep.name} "
                         f"{arc.delay} {arc.resource}")
        for arc in node.in_arcs:
            lines.append(f"{node.id}<{arc.parent.id} {arc.dep.name} "
                         f"{arc.delay} {arc.resource}")
    return lines


def digest(block: BasicBlock, variant: str, policy: AliasPolicy) -> str:
    """The hex digest of one (block, builder variant, policy) build."""
    machine = sparcstation2_like()
    builder = VARIANTS[variant](machine, policy)
    outcome = builder.build(block)
    stats = outcome.stats
    lines = _arc_lines(outcome.dag)
    lines.append(" ".join(f"{name}={getattr(stats, name)}"
                          for name in COUNTERS))
    lines.append(f"words_touched={builder.words_touched}")
    for quarter in (1, 2, 3):
        budgeted = BudgetedStats(max_work=stats.work * quarter // 4)
        try:
            VARIANTS[variant](machine, policy).build(block, budgeted)
        except BlockTimeout as exc:
            trip = " ".join(f"{name}={getattr(budgeted, name)}"
                            for name in COUNTERS)
            lines.append(f"trip {quarter}/4 spent={exc.spent} {trip}")
        else:
            lines.append(f"trip {quarter}/4 none")
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def block_digests(name: str) -> dict[str, str]:
    block = corpus_block(name)
    return {f"{variant}/{policy.value}": digest(block, variant, policy)
            for variant in VARIANTS for policy in AliasPolicy}


@lru_cache(maxsize=1)
def expected() -> dict[str, dict[str, str]]:
    return json.loads(DIGESTS.read_text())


def test_corpus_matches_the_recorded_blocks():
    assert corpus_names() == sorted(expected())
    assert fpppp_window().size == 1000


@pytest.mark.parametrize("name", corpus_names())
def test_block_digests_unchanged(name):
    assert block_digests(name) == expected()[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.test_builder_digests --write")
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps(
        {name: block_digests(name) for name in corpus_names()},
        indent=1, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS}")
