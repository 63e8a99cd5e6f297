"""Deterministic work-profiler: counters attributed to a call tree.

A wall-clock sampling profiler answers "where did the time go" with
an answer that changes every run.  This profiler answers the paper's
actual question -- *where do the work units go* -- by attributing the
machine-independent work counters the builders already maintain
(comparisons, table probes, alias checks, bitmap operations,
reachability words touched, heuristic node visits, instructions
issued) to a ``workload > builder > phase > counter`` call tree.
Because every leaf is a deterministic counter, the profile is
byte-identical across runs, machines, and ``--jobs N``.

Exports:

* collapsed-stack format (``a;b;c;d N`` lines, sorted) -- the input
  format of Brendan Gregg's ``flamegraph.pl`` and of every modern
  flamegraph viewer, so ``repro profile --out work.collapsed`` plugs
  straight into existing tooling;
* a Markdown "where the work goes" table per builder x workload, the
  Tables 4/5 story as a live report.

All heavy imports happen inside functions so ``repro.obs`` stays
importable without pulling in the builder stack, and so the
multiprocessing workers (``--jobs N``) re-import cleanly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: workloads profiled by default (the bench population's kernels)
PROFILE_KERNELS = ("daxpy", "livermore1", "dot_product",
                   "superscalar_mix")

#: builder-phase stack layout, documented once:
#: workload ; builder ; phase ; counter
PROFILE_DEPTH = 4

#: build-phase counters taken from
#: :class:`repro.dag.builders.base.BuildStats`
BUILD_COUNTERS = ("comparisons", "table_probes", "alias_checks",
                  "arcs_added", "arcs_merged", "arcs_suppressed",
                  "bitmap_ops")


def _machine(name: str):
    from repro.errors import ReproError
    from repro.machine import MACHINES
    try:
        factory = MACHINES[name]
    except KeyError:
        raise ReproError(f"unknown machine preset: {name!r}") from None
    return factory()


@dataclass
class WorkProfile:
    """An accumulated work-unit call tree.

    ``stacks`` maps frame tuples (``(workload, builder, phase,
    counter)``) to non-negative unit counts.  Merging is addition, so
    the accumulated totals are independent of the order blocks were
    profiled in -- the property that makes ``--jobs N`` byte-stable.
    """

    machine: str = "generic"
    copies: int = 0
    stacks: dict[tuple, int] = field(default_factory=dict)

    def add(self, stack: tuple, units: int) -> None:
        """Add ``units`` work units at frame tuple ``stack``."""
        if units:
            self.stacks[stack] = self.stacks.get(stack, 0) + units

    def merge(self, leaves: dict) -> None:
        """Fold one block's leaf dict into the profile (addition)."""
        for stack, units in leaves.items():
            self.add(stack, units)

    def total(self) -> int:
        return sum(self.stacks.values())

    def collapsed(self) -> str:
        """Collapsed-stack export (``a;b;c;d N`` per line, sorted).

        Sorted lines plus commutative accumulation make the output
        byte-identical for a given workload regardless of run order
        or worker count.
        """
        lines = [f"{';'.join(stack)} {units}"
                 for stack, units in sorted(self.stacks.items())]
        return "\n".join(lines) + "\n" if lines else ""

    def by_builder_workload(self) -> dict:
        """``{builder: {workload: units}}`` totals (all phases)."""
        table: dict[str, dict[str, int]] = {}
        for (workload, builder, _phase, _counter), units \
                in self.stacks.items():
            row = table.setdefault(builder, {})
            row[workload] = row.get(workload, 0) + units
        return table

    def by_phase(self) -> dict:
        """``{builder: {phase: units}}`` totals (all workloads)."""
        table: dict[str, dict[str, int]] = {}
        for (_workload, builder, phase, _counter), units \
                in self.stacks.items():
            row = table.setdefault(builder, {})
            row[phase] = row.get(phase, 0) + units
        return table

    def markdown(self) -> str:
        """The "where the work goes" report (GitHub Markdown)."""
        kernels = sorted({s[0] for s in self.stacks})
        lines = [
            "# Where the work goes",
            "",
            f"Machine `{self.machine}`, {self.copies} copies per "
            f"kernel, {self.total()} total work units.  Counts are "
            "deterministic work counters (not wall clock); identical "
            "across runs and `--jobs N`.",
            "",
            "## Work units by builder x workload",
            "",
            "| builder | " + " | ".join(kernels) + " | total |",
            "|---|" + "---|" * (len(kernels) + 1),
        ]
        table = self.by_builder_workload()
        for builder in sorted(table):
            row = table[builder]
            cells = [str(row.get(k, 0)) for k in kernels]
            lines.append(f"| `{builder}` | " + " | ".join(cells)
                         + f" | {sum(row.values())} |")
        phases = sorted({s[2] for s in self.stacks})
        lines += [
            "",
            "## Work units by builder x phase",
            "",
            "| builder | " + " | ".join(phases) + " |",
            "|---|" + "---|" * len(phases),
        ]
        phase_table = self.by_phase()
        for builder in sorted(phase_table):
            row = phase_table[builder]
            cells = [str(row.get(p, 0)) for p in phases]
            lines.append(f"| `{builder}` | " + " | ".join(cells) + " |")
        return "\n".join(lines) + "\n"


def _workload_blocks(kernel: str, copies: int):
    """The profiled block population for one kernel (deterministic)."""
    from repro.asm import parse_asm
    from repro.cfg import apply_window, partition_blocks
    from repro.workloads.kernels import (straightline_body,
                                         straightline_source)
    body_len = len(straightline_body(kernel))
    program = parse_asm(straightline_source(kernel, copies),
                        name=kernel)
    return [b for b in apply_window(partition_blocks(program), body_len)
            if b.instructions]


def profile_block(kernel: str, block, machine,
                  builders=None) -> dict:
    """Profile one block: leaf dict of ``{stack: units}``.

    Runs each builder's full pipeline -- build, the backward
    heuristic pass, and list scheduling -- and attributes each phase's
    deterministic work counters to the four-deep stack.  The
    heuristics phase counts node visits (one per DAG node per pass,
    exactly the reverse-walk driver's visit count); the schedule phase
    counts instructions issued.
    """
    from repro.pipeline import schedule_attempt
    from repro.runner.fallback import BUILDER_CLASSES

    names = sorted(builders) if builders else sorted(BUILDER_CLASSES)
    leaves: dict[tuple, int] = {}

    def add(stack: tuple, units: int) -> None:
        if units:
            leaves[stack] = leaves.get(stack, 0) + units

    for name in names:
        builder, outcome, sched, _ = schedule_attempt(
            block, machine, lambda cls=BUILDER_CLASSES[name]: cls(machine),
            name)
        for counter in BUILD_COUNTERS:
            add((kernel, name, "build", counter),
                getattr(outcome.stats, counter))
        add((kernel, name, "build", "words_touched"),
            builder.words_touched)
        add((kernel, name, "heuristics", "node_visits"),
            len(outcome.dag.nodes))
        add((kernel, name, "schedule", "instructions_issued"),
            len(sched.order))
    return leaves


def _profile_task(payload: tuple) -> dict:
    """Multiprocessing worker body: profile one ``(kernel, block)``.

    Stringified stacks keep the wire format trivially picklable; the
    parent re-tuples them before merging.
    """
    kernel, block, machine_name, builders = payload
    machine = _machine(machine_name)
    leaves = profile_block(kernel, block, machine, builders)
    return {";".join(stack): units for stack, units in leaves.items()}


def profile_workload(machine_name: str = "generic",
                     kernels=PROFILE_KERNELS, copies: int = 8,
                     builders=None, jobs: int = 1) -> WorkProfile:
    """Profile the kernel population into one :class:`WorkProfile`.

    Args:
        machine_name: machine preset name (resolved per worker so the
            task payloads stay picklable).
        kernels: workload kernel names to profile.
        copies: straight-line body repetitions per kernel.
        builders: builder names to include (default: all).
        jobs: worker processes; results are merged in submission
            order and merging is commutative addition, so any ``jobs``
            value produces byte-identical exports.
    """
    machine = _machine(machine_name)
    tasks = [(kernel, block, machine_name,
              tuple(sorted(builders)) if builders else None)
             for kernel in kernels
             for block in _workload_blocks(kernel, copies)]
    profile = WorkProfile(machine=machine_name, copies=copies)
    if jobs >= 2 and len(tasks) > 1:
        import concurrent.futures
        with concurrent.futures.ProcessPoolExecutor(
                max_workers=jobs) as pool:
            for wire in pool.map(_profile_task, tasks):
                profile.merge({tuple(key.split(";")): units
                               for key, units in wire.items()})
    else:
        for kernel, block, _mname, names in tasks:
            profile.merge(profile_block(kernel, block, machine, names))
    return profile


def write_profile(profile: WorkProfile, path: str,
                  markdown_path: str | None = None) -> None:
    """Write the collapsed-stack export (and optional Markdown)."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(profile.collapsed())
    if markdown_path:
        with open(markdown_path, "w", encoding="utf-8") as handle:
            handle.write(profile.markdown())
