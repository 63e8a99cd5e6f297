"""repro: instruction-scheduling DAG construction and heuristics.

A production-quality reproduction of M. Smotherman, S. Krishnamurthy,
P.S. Aravind and D. Hunnicutt, "Efficient DAG Construction and
Heuristic Calculation for Instruction Scheduling", MICRO-24, 1991.

Quickstart::

    from repro import (parse_asm, partition_blocks, generic_risc,
                       TableForwardBuilder, backward_pass,
                       schedule_forward, winnowing)

    program = parse_asm(open("kernel.s").read())
    machine = generic_risc()
    for block in partition_blocks(program):
        outcome = TableForwardBuilder(machine).build(block)
        backward_pass(outcome.dag)
        result = schedule_forward(
            outcome.dag, machine,
            winnowing("max_path_to_leaf", "max_delay_to_leaf"))
        print([n.instr.render() for n in result.order])

Subpackages:

* :mod:`repro.isa` -- SPARC-like ISA substrate;
* :mod:`repro.asm` -- assembly parser/writer;
* :mod:`repro.cfg` -- basic blocks and instruction windows;
* :mod:`repro.machine` -- timing models and reservation tables;
* :mod:`repro.dag` -- the dependence DAG and its five construction
  algorithms;
* :mod:`repro.heuristics` -- the 26 Table 1 heuristics and the
  intermediate calculation passes;
* :mod:`repro.scheduling` -- list scheduling, the six Table 2
  algorithms, postpass fixup, branch and bound;
* :mod:`repro.verify` -- independent schedule verification and fault
  injection;
* :mod:`repro.runner` -- resilient batch execution: watchdog budgets,
  builder fallback chains, checkpoint/resume journals, and the
  differential fuzz harness;
* :mod:`repro.regalloc` -- liveness/pressure substrate;
* :mod:`repro.workloads` -- Table 3-calibrated synthetic benchmarks;
* :mod:`repro.analysis` -- table regeneration and reporting.
"""

from repro.dep import DepType
from repro.errors import (
    AsmSyntaxError,
    BlockTimeout,
    BuilderMismatchError,
    CfgError,
    DagError,
    JournalError,
    ReproError,
    SchedulingError,
    VerificationError,
    WorkloadError,
)
from repro.asm import parse_asm, render_program
from repro.cfg import apply_window, partition_blocks, BasicBlock
from repro.machine import (
    MachineModel,
    generic_risc,
    rs6000_like,
    sparcstation2_like,
    superscalar2,
)
from repro.dag import Dag, DagNode, Arc
from repro.dag.builders import (
    ALL_BUILDERS,
    BitmapBackwardBuilder,
    CompareAllBuilder,
    LandskovBuilder,
    TableBackwardBuilder,
    TableForwardBuilder,
)
from repro.heuristics import (
    backward_pass,
    backward_pass_levels,
    catalog,
    forward_pass,
)
from repro.scheduling import (
    branch_and_bound_schedule,
    delay_slot_fixup,
    schedule_backward,
    schedule_forward,
    schedule_with_reservation,
    simulate,
    weighted,
    winnowing,
)
from repro.scheduling.algorithms import ALL_ALGORITHMS
from repro.scheduling.delay_slots import fill_delay_slot
from repro.scheduling.interblock import apply_inherited, residual_latencies
from repro.pipeline import SECTION6_PRIORITY
from repro.transform import schedule_program, TransformReport
from repro.verify import (
    BlockFailure,
    FaultKind,
    VerificationReport,
    check_builders_agree,
    inject_fault,
    verify_schedule,
)
from repro.runner import (
    BatchResult,
    Budget,
    RunJournal,
    fuzz,
    run_batch,
    run_fingerprint,
    schedule_block_resilient,
)
from repro.dag.export import to_dot, to_networkx
from repro.minic import compile_minic, compile_to_program

__version__ = "1.0.0"

__all__ = [
    "DepType",
    "ReproError",
    "AsmSyntaxError",
    "BlockTimeout",
    "BuilderMismatchError",
    "CfgError",
    "DagError",
    "JournalError",
    "SchedulingError",
    "VerificationError",
    "WorkloadError",
    "parse_asm",
    "render_program",
    "partition_blocks",
    "apply_window",
    "BasicBlock",
    "MachineModel",
    "generic_risc",
    "sparcstation2_like",
    "rs6000_like",
    "superscalar2",
    "Dag",
    "DagNode",
    "Arc",
    "ALL_BUILDERS",
    "CompareAllBuilder",
    "LandskovBuilder",
    "TableForwardBuilder",
    "TableBackwardBuilder",
    "BitmapBackwardBuilder",
    "forward_pass",
    "backward_pass",
    "backward_pass_levels",
    "catalog",
    "schedule_forward",
    "schedule_backward",
    "schedule_with_reservation",
    "simulate",
    "winnowing",
    "weighted",
    "delay_slot_fixup",
    "branch_and_bound_schedule",
    "ALL_ALGORITHMS",
    "fill_delay_slot",
    "apply_inherited",
    "residual_latencies",
    "SECTION6_PRIORITY",
    "schedule_program",
    "TransformReport",
    "BlockFailure",
    "FaultKind",
    "VerificationReport",
    "check_builders_agree",
    "inject_fault",
    "verify_schedule",
    "BatchResult",
    "Budget",
    "RunJournal",
    "fuzz",
    "run_batch",
    "run_fingerprint",
    "schedule_block_resilient",
    "to_dot",
    "to_networkx",
    "compile_minic",
    "compile_to_program",
    "__version__",
]
